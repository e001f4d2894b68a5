import json
import shutil

import pytest

import bundle_corpus

# exit codes of the 30 analyze cases: 0 certified and stable, 2 not
# certified, 3 certified but not stable; --simulate never changes them
ANALYZE_EXITS = {
    "torus4": {3: 0, 6: 0, 40: 0},
    "torus16": {3: 0, 6: 0, 40: 0},
    "bucky": {3: 2, 6: 3, 40: 3},
    "hex6": {3: 2, 6: 3, 40: 3},
    "bridge": {3: 2, 6: 3, 40: 3},
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """One run of the corpus, shared by the tests of this module."""
    path = tmp_path_factory.mktemp("corpus")
    return path, bundle_corpus.run(path)


def test_corpus_exit_codes_and_reports(corpus):
    a, results = corpus
    assert sorted(results) == sorted(name for name, _ in bundle_corpus.cases())
    analyze = {name: r["exit"] for name, r in results.items() if name.startswith("analyze-")}
    # the 91-class refinement of the hex torus: its reduced graph is not bipartite
    assert analyze.pop("analyze-hex30-h6") == 2
    assert analyze == {f"analyze-{setup}-h{h}{sim}": code
                       for setup, codes in ANALYZE_EXITS.items()
                       for h, code in codes.items() for sim in ("", "-sim")}
    # report verifies every bundle's hash chain, with `created` stripped
    for name, code in analyze.items():
        report = results[f"report-{name}"]
        assert report["exit"] == 0, report["stderr"]
        assert report["stdout"].startswith("patternq report")
        assert (a / "out" / f"report-{name}.svg").read_text().startswith("<svg")
        assert '"created"' not in (a / "out" / f"{name}.json").read_text()
    others = {name: r["exit"] for name, r in results.items()
              if not name.startswith(("analyze-", "report-"))}
    # partition, exist, stability, gen, simulate and render; every
    # simulate --perturb vr run writes its trace, and render draws it
    assert len(others) == 58 and set(others.values()) == {0}
    for name in bundle_corpus.SETUPS:
        assert (a / "out" / f"simulate-vr-{name}.csv").read_text().startswith("t,x_0,")
        assert (a / "out" / f"render-{name}.svg").read_text().startswith("<svg")
    assert not any(r["stderr"] for r in results.values())


def test_diff_lists_numbers_and_fails_only_on_verdicts(corpus, tmp_path):
    a, _ = corpus
    lines = []
    assert bundle_corpus.diff(a, a, lines.append) == 0
    assert lines[0] == "# 124 output files identical"

    b = tmp_path / "b"
    shutil.copytree(a, b)
    path = b / "out" / "stability-bucky-h6.json"
    data = json.loads(path.read_text())
    data["small_gain"]["rho_full"] += 1e-15
    path.write_text(json.dumps(data))
    lines.clear()
    assert bundle_corpus.diff(a, b, lines.append) == 0
    assert lines[0].startswith("stability-bucky-h6.json: small_gain.rho_full: ")
    assert lines[-2].startswith("# largest distance 1.1")
    assert lines[-2].endswith("e-15 in small_gain.rho_full")

    data["small_gain"]["verdict"] = "CERTIFIED_STABLE"
    path.write_text(json.dumps(data))
    results = json.loads((b / "results.json").read_text())
    results["partition-check-hex6"]["exit"] = 1
    (b / "results.json").write_text(json.dumps(results))
    with open(b / "out" / "simulate-vr-torus4.csv", "a") as fh:
        fh.write("\n")
    lines.clear()
    assert bundle_corpus.diff(a, b, lines.append) == 1
    assert "partition-check-hex6: EXIT 0 -> 1" in lines
    assert "simulate-vr-torus4.csv: csv differs" in lines
    assert ("stability-bucky-h6.json: VERDICT small_gain.verdict: "
            "'NOT_CERTIFIED' -> 'CERTIFIED_STABLE'") in lines
