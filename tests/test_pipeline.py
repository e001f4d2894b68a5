"""The staged run and the sealed bundle as a library, and the boundary
between it and the command line."""
import ast
import json
from pathlib import Path

import pytest

import patternq.cli
from patternq.cells import HillMap
from patternq.errors import BadBundle
from patternq.existence import CERTIFIED
from patternq.graphs import generate
from patternq.partitions import bipartition_partition, block_decompose, make_partition
from patternq.pipeline import SECTIONS, Run, seal_bundle, verify_bundle
from patternq.serialize import dumps_canonical
from patternq.stability import STABLE, UNSTABLE

PENT_HEX = [list(range(12)), list(range(12, 32))]


@pytest.mark.parametrize("spec,classes,bloch,full_verdict,code", [
    pytest.param("torus_mesh:16,16", None, True, STABLE, 0, id="torus16-checkerboard"),
    pytest.param("buckyball", PENT_HEX, False, UNSTABLE, 3, id="buckyball-pent-hex"),
])
def test_sealed_sections_match_what_analyze_writes(tmp_path, spec, classes, bloch,
                                                   full_verdict, code):
    kind, _, sizes = spec.partition(":")
    g = generate(kind, *(int(s) for s in sizes.split(",") if s))
    pi = bipartition_partition(g) if classes is None else make_partition(classes, g.n)
    run = Run(g, pi, HillMap(exponent=6.0))
    partition_file = tmp_path / "p.json"
    mode = "auto-bipartite" if classes is None else f"file:{partition_file}"
    sealed = seal_bundle(run, 0.01, {"graph": {"source": spec}, "partition": {"mode": mode}})
    verify_bundle(sealed)
    assert bool(len(block_decompose(run.qm).character_blocks)) is bloch
    assert run.pattern.certificate.verdict == CERTIFIED
    assert run.pattern_stability["full_verdict"] == full_verdict

    model, out = tmp_path / "h6.json", tmp_path / "b.json"
    model.write_text('{"A": 2.0, "K": 1.0, "h": 6.0, "tau": 1.0}\n')
    partition = (["--auto-bipartite"] if classes is None else
                 ["--partition", str(partition_file)])
    if classes is not None:
        partition_file.write_text(json.dumps({"classes": classes}))
    assert patternq.cli.main(["analyze", "--gen", spec, *partition, "--model", str(model),
                              "--simulate", "-o", str(out)]) == code
    written = json.loads(out.read_text())
    for name in SECTIONS:
        assert dumps_canonical(sealed[name]) == dumps_canonical(written[name]), name


def _checkerboard_bundle() -> dict:
    g = generate("torus_mesh", 4, 4)
    return seal_bundle(Run(g, bipartition_partition(g), HillMap(exponent=6.0)), 0.01,
                       {"graph": {"source": "torus_mesh:4,4"}})


def test_a_sealed_bundle_verifies_in_memory_and_refuses_a_tampered_section():
    sealed = _checkerboard_bundle()
    verify_bundle(sealed)
    verify_bundle(json.loads(dumps_canonical(sealed)))
    tampered = {**sealed, "pattern": {**sealed["pattern"], "data": {"z": [1.0, 1.0]}}}
    with pytest.raises(BadBundle, match="^section 'pattern' content does not match its hash$"):
        verify_bundle(tampered)
    relabelled = {**sealed, "graph": {**sealed["graph"], "source": "torus_mesh:2,8"}}
    with pytest.raises(BadBundle, match="^section 'graph' content does not match its hash$"):
        verify_bundle(relabelled)


@pytest.mark.parametrize("schema,message", [
    pytest.param(2, "unsupported bundle schema 2; patternq reads schema 1", id="two"),
    pytest.param(True, "unsupported bundle schema True; patternq reads schema 1", id="true"),
    pytest.param("1", "unsupported bundle schema '1'; patternq reads schema 1", id="text"),
    pytest.param(None, "'schema'", id="missing"),
])
def test_verify_refuses_any_schema_but_1(schema, message):
    sealed = _checkerboard_bundle()
    if schema is None:
        del sealed["schema"]
    else:
        sealed["schema"] = schema
    with pytest.raises(BadBundle) as info:
        verify_bundle(sealed)
    assert str(info.value) == message


# the stages that only the pipeline calls
PIPELINE_STAGES = frozenset({"quotient", "certify", "solve_reduced", "lift", "stability_report",
                             "block_stability", "small_gain", "verify_certificate"})


def test_cli_calls_no_stage_and_imports_no_private_name():
    tree = ast.parse(Path(patternq.cli.__file__).read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and (node.level or (node.module or "").startswith("patternq"))
                for alias in node.names]
    assert "Run" in imported
    assert PIPELINE_STAGES.isdisjoint(imported)
    assert [name for name in imported if name.startswith("_") and name != "__version__"] == []
