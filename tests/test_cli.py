import hashlib
import json
import logging
import re

import numpy as np
import pytest

from patternq.cli import main
from patternq.serialize import dumps_canonical


@pytest.fixture
def model_h6(tmp_path):
    path = tmp_path / "h6.json"
    path.write_text('{"A": 2.0, "K": 1.0, "h": 6.0, "tau": 1.0}\n')
    return str(path)


@pytest.fixture
def model_h4(tmp_path):
    path = tmp_path / "h4.json"
    path.write_text('{"A": 2.0, "K": 1.0, "h": 4.0, "tau": 1.0}\n')
    return str(path)


@pytest.fixture
def torus_graph(tmp_path):
    path = tmp_path / "g.json"
    assert main(["gen", "--kind", "torus_mesh", "--rows", "4", "--cols", "4",
                 "-o", str(path)]) == 0
    return str(path)


@pytest.fixture
def torus_bipartition(tmp_path):
    path = tmp_path / "p.json"
    classes = [[0, 2, 5, 7, 8, 10, 13, 15], [1, 3, 4, 6, 9, 11, 12, 14]]
    path.write_text(json.dumps({"classes": classes}))
    return str(path)


def test_gen_writes_valid_graph(torus_graph):
    data = json.loads(open(torus_graph).read())
    assert data["n"] == 16
    assert len(data["edges"]) == 32


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["gen", "--kind", "buckyball", "-o", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_partition_check_mode(tmp_path, torus_graph, torus_bipartition):
    out = tmp_path / "chk.json"
    assert main(["partition", "--graph", torus_graph, "--mode", "check",
                 "--seed", torus_bipartition, "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["equitable"] is True
    assert data["matrix"] == [[0.0, 1.0], [1.0, 0.0]]
    assert data["reduced_bipartite"] is True


def test_partition_orbits_mode(tmp_path, torus_graph):
    from helpers import torus_domino_generators

    perms = tmp_path / "perms.json"
    perms.write_text(json.dumps({"perms": torus_domino_generators(4, 4)}))
    out = tmp_path / "orb.json"
    assert main(["partition", "--graph", torus_graph, "--mode", "orbits",
                 "--perms", str(perms), "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["classes"][0] == [0, 2, 4, 6, 9, 11, 13, 15]
    assert data["matrix"] == [[0.25, 0.75], [0.75, 0.25]]


def test_quotient_command(tmp_path, torus_graph, torus_bipartition):
    out = tmp_path / "q.json"
    assert main(["quotient", "--graph", torus_graph, "--partition",
                 torus_bipartition, "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert np.abs(np.array(data["eigenvalues"]) - [1.0, -1.0]).max() < 1e-9


def test_exist_command_payload(tmp_path, torus_graph, torus_bipartition, model_h6):
    out = tmp_path / "pat.json"
    assert main(["exist", "--graph", torus_graph, "--partition", torus_bipartition,
                 "--model", model_h6, "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["verdict"] == "CERTIFIED"
    assert abs(data["lambda_r"] + 1.0) < 1e-9
    assert len(data["z"]) == 2 and len(data["u"]) == 16
    assert data["residuals"]["reduced"] < 1e-10
    assert data["residuals"]["full"] < 1e-10


def test_stability_command(tmp_path, torus_graph, torus_bipartition, model_h6):
    pat = tmp_path / "pat.json"
    main(["exist", "--graph", torus_graph, "--partition", torus_bipartition,
          "--model", model_h6, "-o", str(pat)])
    out = tmp_path / "stab.json"
    assert main(["stability", "--graph", torus_graph, "--partition",
                 torus_bipartition, "--model", model_h6, "--pattern", str(pat),
                 "--method", "all", "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["full_verdict"] == "STABLE"
    assert data["small_gain"]["verdict"] == "CERTIFIED_STABLE"
    assert data["block"]["consistency"] < 1e-8


def test_simulate_and_render(tmp_path, torus_graph, torus_bipartition, model_h6, capsys):
    trace = tmp_path / "tr.csv"
    out = tmp_path / "sim.json"
    assert main(["simulate", "--graph", torus_graph, "--model", model_h6,
                 "--perturb", "vr", "--partition", torus_bipartition,
                 "--trace", str(trace), "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["converged"] is True
    assert sorted(len(grp) for grp in data["groups"]) == [8, 8]
    header = trace.read_text().splitlines()[0]
    assert header == "t," + ",".join(f"x_{i}" for i in range(16))
    capsys.readouterr()
    svg = tmp_path / "grid.svg"
    assert main(["render", "--trace", str(trace), "--layout", "torus",
                 "--rows", "4", "--cols", "4", "--svg", str(svg)]) == 0
    ascii_art = capsys.readouterr().out.strip().splitlines()
    assert len(ascii_art) == 4
    # checkerboard alternates glyphs along each row
    row = ascii_art[0].split()
    assert row[0] != row[1] and row[0] == row[2]
    assert svg.read_text().startswith("<svg")


def test_simulate_single_cell_perturbation(tmp_path, torus_graph, model_h6):
    out = tmp_path / "sim.json"
    assert main(["simulate", "--graph", torus_graph, "--model", model_h6,
                 "--perturb", "cell:3", "--eps", "0.02", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["converged"] is True


def test_simulate_vr_settles_on_the_128x128_checkerboard(tmp_path, model_h6):
    side = 128
    classes = [[v for v in range(side * side) if (v // side + v % side) % 2 == parity]
               for parity in (0, 1)]
    part = tmp_path / "p.json"
    part.write_text(json.dumps({"classes": classes}))
    out = tmp_path / "sim.json"
    assert main(["simulate", "--gen", f"torus_mesh:{side},{side}", "--model", model_h6,
                 "--partition", str(part), "--perturb", "vr", "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["converged"] is True
    assert sorted(data["groups"]) == classes


def test_analyze_exit_codes(tmp_path, model_h6, model_h4):
    bundle = tmp_path / "b.json"
    # certified + stable checkerboard
    assert main(["analyze", "--gen", "torus_mesh:4,4", "--auto-bipartite",
                 "--model", model_h6, "-o", str(bundle)]) == 0
    # not certified at the threshold
    pent_hex = tmp_path / "ph.json"
    pent_hex.write_text(json.dumps(
        {"classes": [list(range(12)), list(range(12, 32))]}))
    assert main(["analyze", "--gen", "buckyball", "--partition", str(pent_hex),
                 "--model", model_h4, "-o", str(bundle)]) == 2
    # certified but unstable
    assert main(["analyze", "--gen", "buckyball", "--partition", str(pent_hex),
                 "--model", model_h6, "-o", str(bundle)]) == 3
    # load error
    assert main(["analyze", "--graph", str(tmp_path / "nope.json"),
                 "--auto-bipartite", "--model", model_h6]) == 1


def test_analyze_auto_refine_returns_single_class(tmp_path, model_h6):
    bundle = tmp_path / "b.json"
    code = main(["analyze", "--gen", "torus_mesh:4,4", "--auto-refine",
                 "--model", model_h6, "-o", str(bundle)])
    data = json.loads(bundle.read_text())
    assert len(data["partition"]["data"]["classes"]) == 1
    assert code == 2  # single class: minimum eigenvalue is 1, inconclusive


def test_bundle_determinism_modulo_timestamp(tmp_path, model_h6):
    b1, b2 = tmp_path / "b1.json", tmp_path / "b2.json"
    for out in (b1, b2):
        assert main(["analyze", "--gen", "torus_mesh:4,4", "--auto-bipartite",
                     "--model", model_h6, "--simulate", "-o", str(out)]) == 0
    d1, d2 = json.loads(b1.read_text()), json.loads(b2.read_text())
    d1.pop("created")
    d2.pop("created")
    assert dumps_canonical(d1) == dumps_canonical(d2)


def test_bundle_input_sections_keep_their_hashes(tmp_path, model_h6):
    # the graph, model and partition sections hold no computed floats, so
    # their hashes pin the canonical encoder byte for byte
    bundle = tmp_path / "b.json"
    assert main(["analyze", "--gen", "torus_mesh:4,4", "--auto-bipartite",
                 "--model", model_h6, "-o", str(bundle)]) == 0
    data = json.loads(bundle.read_text())
    assert {k: data[k]["sha256"] for k in ("graph", "model", "partition")} == {
        "graph": "c18f3c3bca5600f890be05b2be4151bae1d0af4a393bb6cba4062cb2c363ac49",
        "model": "bac1254704efc57d805fa7d96bef4257e9596cdafab2bd213ec2f1ca6a564546",
        "partition": "e824394c97b7a8a13157c72cd3fac5b93573634123c7de0508b5a8c597aa46cb",
    }


def test_reparsed_bundle_keeps_its_section_hashes(tmp_path, model_h6):
    # hashes are taken over the sections' canonical text: parsing the bundle
    # and emitting each section again must give the same digests
    bundle = tmp_path / "b.json"
    assert main(["analyze", "--gen", "torus_mesh:4,4", "--auto-bipartite", "--simulate",
                 "--model", model_h6, "-o", str(bundle)]) == 0
    data = json.loads(bundle.read_text())
    for name in ("graph", "model", "partition", "quotient", "certificate", "pattern",
                 "stability", "simulation"):
        body = {k: v for k, v in data[name].items() if k != "sha256"}
        assert hashlib.sha256(dumps_canonical(body).encode()).hexdigest() == data[name]["sha256"]
    again = tmp_path / "again.json"
    again.write_text(dumps_canonical(data))
    assert again.read_text() + "\n" == bundle.read_text()
    assert main(["report", "--bundle", str(again)]) == 0


def test_report_verifies_and_prints(tmp_path, model_h6, capsys):
    from helpers import torus_domino_generators

    bundle = tmp_path / "b.json"

    perms = tmp_path / "perms.json"
    perms.write_text(json.dumps({"perms": torus_domino_generators(4, 4)}))
    assert main(["analyze", "--gen", "torus_mesh:4,4", "--orbit-perms", str(perms),
                 "--model", model_h6, "-o", str(bundle)]) == 0
    capsys.readouterr()
    assert main(["report", "--bundle", str(bundle)]) == 0
    out = capsys.readouterr().out
    assert "existence threshold: |slope at u*| > 2" in out
    assert "[0.25, 0.75]" in out
    assert "homogeneous fixed point u* = 1" in out
    assert "CERTIFIED" in out


def test_report_svg_groups_cells_with_the_model_gap(tmp_path, model_h6, monkeypatch):
    import patternq.cli as cli

    seen = []

    def spy(model):
        seen.append(model.amplitude)
        return 1e-4 * model.amplitude

    monkeypatch.setattr(cli, "grouping_tol", spy)
    bundle, svg = tmp_path / "b.json", tmp_path / "b.svg"
    assert main(["analyze", "--gen", "torus_mesh:4,4", "--auto-bipartite",
                 "--model", model_h6, "-o", str(bundle)]) == 0
    assert main(["report", "--bundle", str(bundle), "--svg", str(svg)]) == 0
    assert seen == [2.0]
    fills = re.findall(r'fill="(#[0-9a-f]+)"', svg.read_text())
    assert len(fills) == 16
    # the two colours of the checkerboard follow the parity of i + j
    assert {(fills[v], (v // 4 + v % 4) % 2) for v in range(16)} == {
        (fills[0], 0), (fills[1], 1)} and fills[0] != fills[1]


def test_report_rejects_tampered_bundle(tmp_path, model_h6, capsys):
    bundle = tmp_path / "b.json"
    main(["analyze", "--gen", "torus_mesh:4,4", "--auto-bipartite",
          "--model", model_h6, "-o", str(bundle)])
    data = json.loads(bundle.read_text())
    data["certificate"]["data"]["verdict"] = "CERTIFIED_FAKE"
    bundle.write_text(json.dumps(data))
    assert main(["report", "--bundle", str(bundle)]) == 1
    assert "does not match its hash" in capsys.readouterr().err


def test_gen_missing_params_is_tagged_error(capsys):
    assert main(["gen", "--kind", "torus_mesh"]) == 1
    err = capsys.readouterr().err
    assert "error [gen]" in err
    assert "torus_mesh takes rows, cols: missing a required argument: 'rows'" in err
    assert main(["gen", "--kind", "path"]) == 1
    assert "path takes n: missing a required argument: 'n'" in capsys.readouterr().err
    assert main(["partition", "--gen", "buckyball:3", "--mode", "refine"]) == 1
    assert ("error [gen]: buckyball takes no parameters: too many positional arguments"
            in capsys.readouterr().err)


@pytest.mark.parametrize("argv", [
    ["simulate", "--gen", "torus_mesh:4,4", "--model", "{model}", "--perturb", "cell:99"],
    ["simulate", "--gen", "torus_mesh:4,4", "--model", "{model}", "--perturb", "cell:-1"],
    ["simulate", "--gen", "torus_mesh:4,4", "--model", "{model}", "--perturb", "random:abc"],
    ["simulate", "--gen", "torus_mesh:4,4", "--model", "{model}", "--perturb", "cell:"],
    ["render", "--trace", "{empty}", "--layout", "torus", "--rows", "4", "--cols", "4"],
    ["stability", "--gen", "torus_mesh:4,4", "--partition", "{partition}",
     "--model", "{model}", "--pattern", "{z_list}"],
    ["simulate", "--gen", "torus_mesh:4,4", "--model", "{z_list}"],
    ["quotient", "--gen", "torus_mesh:4,4", "--partition", "{z_list}"],
    ["quotient", "--graph", "{z_list}", "--partition", "{partition}"],
    ["partition", "--gen", "torus_mesh:4,4", "--mode", "check", "--seed", "{string}"],
    ["partition", "--gen", "torus_mesh:4,4", "--mode", "orbits", "--perms", "{string}"],
    ["simulate", "--gen", "torus_mesh:4,4", "--model", "{model}", "--x0", "{z_object}"],
    ["report", "--bundle", "{z_list}"],
    ["simulate", "--gen", "torus_mesh:4,4", "--model", "{bad_model}"],
    ["quotient", "--gen", "torus_mesh:4,4", "--partition", "{bad_classes}"],
    ["stability", "--gen", "torus_mesh:4,4", "--partition", "{partition}",
     "--model", "{model}", "--pattern", "{bad_z}"],
    ["partition", "--gen", "torus_mesh:4,4", "--mode", "orbits", "--perms", "{bad_perms}"],
    ["quotient", "--graph", "{bad_edges}", "--partition", "{partition}"],
    ["quotient", "--graph", "{bad_n}", "--partition", "{partition}"],
    ["simulate", "--gen", "torus_mesh:4,4", "--model", "{model}", "--x0", "{bad_x0}"],
])
def test_malformed_input_is_tagged_error(tmp_path, model_h6, torus_bipartition, capsys,
                                         argv):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    z_list = tmp_path / "z.json"
    z_list.write_text("[1.5, 0.5]\n")
    string = tmp_path / "string.json"
    string.write_text('"abc"\n')
    z_object = tmp_path / "z_object.json"
    z_object.write_text('{"z": [1]}\n')
    files = {"model": model_h6, "partition": torus_bipartition,
             "empty": str(empty), "z_list": str(z_list), "string": str(string),
             "z_object": str(z_object)}
    # right top-level type, wrong field type
    for name, text in [("bad_model", '{"A": [1]}'), ("bad_classes", '{"classes": 5}'),
                       ("bad_z", '{"z": {"a": 1}}'), ("bad_perms", '{"perms": 5}'),
                       ("bad_edges", '{"n": 4, "edges": 3}'),
                       ("bad_n", '{"n": [4], "edges": []}'), ("bad_x0", '[{"a": 1}]')]:
        path = tmp_path / f"{name}.json"
        path.write_text(text + "\n")
        files[name] = str(path)
    assert main([arg.format(**files) for arg in argv]) == 1
    assert "error [" in capsys.readouterr().err


def test_write_errors_are_tagged_write(tmp_path, model_h6, capsys):
    missing = tmp_path / "missing" / "out"
    assert main(["gen", "--kind", "path", "--n", "4", "-o", str(missing)]) == 1
    assert "error [write]" in capsys.readouterr().err
    trace = tmp_path / "trace.csv"
    assert main(["simulate", "--gen", "path:4", "--model", model_h6,
                 "--trace", str(missing)]) == 1
    assert "error [write]" in capsys.readouterr().err
    assert main(["simulate", "--gen", "path:4", "--model", model_h6,
                 "--trace", str(trace)]) == 0
    assert main(["render", "--trace", str(trace), "--layout", "torus", "--rows", "1",
                 "--cols", "4", "--svg", str(missing)]) == 1
    assert "error [write]" in capsys.readouterr().err


def test_analyze_builds_each_intermediate_once(tmp_path, monkeypatch, model_h6):
    # count calls at every module that binds the function, so calls from
    # one library module into another are seen too
    import sys

    from patternq import existence, graphs, partitions

    counts = dict.fromkeys(["scaled_adjacency", "is_equitable", "_class_sums_checked",
                            "quotient", "certify"], 0)

    def counted(fn):
        def wrapper(*args, **kwargs):
            counts[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    originals = [graphs.scaled_adjacency, partitions.is_equitable,
                 partitions._class_sums_checked, partitions.quotient, existence.certify]
    wrappers = {fn.__name__: counted(fn) for fn in originals}
    for name, module in list(sys.modules.items()):
        if name.startswith("patternq"):
            for attr, value in list(vars(module).items()):
                if any(value is fn for fn in originals):
                    monkeypatch.setattr(module, attr, wrappers[value.__name__])
    assert main(["analyze", "--gen", "torus_mesh:4,4", "--auto-bipartite",
                 "--model", model_h6, "--simulate", "-o", str(tmp_path / "b.json")]) == 0
    # quotient checks equitability on the class sums it builds the matrix
    # from, so the public is_equitable has no caller here
    assert counts == {"scaled_adjacency": 1, "is_equitable": 0, "_class_sums_checked": 1,
                      "quotient": 1, "certify": 1}


def test_analyze_two_colors_the_contact_graph_once(tmp_path, monkeypatch, model_h6):
    # is_connected and bipartition_partition share the graph's one coloring
    from patternq import graphs

    calls = []
    real = graphs._two_coloring
    monkeypatch.setattr(graphs, "_two_coloring", lambda *a: calls.append(a[0]) or real(*a))
    assert main(["analyze", "--gen", "torus_mesh:16,16", "--auto-bipartite",
                 "--model", model_h6, "-o", str(tmp_path / "b.json")]) == 0
    assert calls == [256]


@pytest.mark.parametrize("argv,builds,equitable", [
    (["--gen", "hex_torus:6,6", "--mode", "refine"], 2, True),
    (["--gen", "torus_mesh:4,4", "--mode", "check", "--seed", "{partition}"], 1, True),
    (["--gen", "torus_mesh:4,4", "--mode", "orbits", "--perms", "{perms}"], 1, True),
    # NotEquitable carries the witness, so no second check rebuilds it
    (["--gen", "torus_mesh:4,4", "--mode", "check", "--seed", "{rows}"], 1, False),
])
def test_partition_builds_operator_once_per_check(tmp_path, monkeypatch, torus_bipartition,
                                                  argv, builds, equitable):
    from patternq import partitions
    from patternq.graphs import torus_mesh

    from helpers import torus_domino_generators

    perms = tmp_path / "perms.json"
    perms.write_text(json.dumps({"perms": torus_domino_generators(4, 4)}))
    rows = tmp_path / "rows.json"
    rows.write_text(json.dumps({"classes": [list(range(4)), list(range(4, 16))]}))
    counts = dict.fromkeys(["scaled_adjacency", "is_equitable"], 0)

    def count(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    # partitions binds every scaled_adjacency call the partition command makes
    count(partitions, "scaled_adjacency")
    count(partitions, "is_equitable")
    out = tmp_path / "out.json"
    files = {"partition": torus_bipartition, "perms": str(perms), "rows": str(rows)}
    assert main(["partition"] + [a.format(**files) for a in argv] + ["-o", str(out)]) == 0
    assert counts == {"scaled_adjacency": builds, "is_equitable": 0}
    data = json.loads(out.read_text())
    assert data["equitable"] is equitable
    assert (data["witness"] is None) is equitable
    if not equitable:
        pi = partitions.make_partition(data["classes"], 16)
        assert data["witness"] == list(partitions.is_equitable(torus_mesh(4, 4), pi).witness)


def test_analyze_auto_bipartite_on_odd_cycles(tmp_path, model_h6, capsys):
    g = tmp_path / "tri.json"
    assert main(["gen", "--kind", "triangle_bridge", "-o", str(g)]) == 0
    assert main(["analyze", "--graph", str(g), "--auto-bipartite",
                 "--model", model_h6]) == 1
    assert "error [partition]" in capsys.readouterr().err


def test_log_env_var_smoke(tmp_path, monkeypatch, model_h6):
    monkeypatch.setenv("PATTERNQ_LOG", "debug")
    out = tmp_path / "g.json"
    assert main(["gen", "--kind", "path", "--n", "4", "-o", str(out)]) == 0


def test_missing_pattern_stage_tag(tmp_path, torus_graph, model_h6, capsys):
    # inequitable partition surfaces as a tagged stage error, exit 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"classes": [[0], list(range(1, 16))]}))
    assert main(["exist", "--graph", torus_graph, "--partition", str(bad),
                 "--model", model_h6]) == 1
    assert "error [quotient]" in capsys.readouterr().err


def test_analyze_zero_class_gain_certifies(tmp_path):
    # h = 40: the checkerboard's low class has dc-gain exactly 0
    model = tmp_path / "h40.json"
    model.write_text('{"A": 2.0, "K": 1.0, "h": 40.0, "tau": 1.0}\n')
    bundle = tmp_path / "b.json"
    assert main(["analyze", "--gen", "torus_mesh:4,4", "--auto-bipartite",
                 "--model", str(model), "-o", str(bundle)]) == 0
    sg = json.loads(bundle.read_text())["stability"]["data"]["small_gain"]
    assert sg["rho_reduced"] == 0 and sg["verdict"] == "CERTIFIED_STABLE"


@pytest.mark.parametrize("extra", [
    ["--x0", "{nan_x0}"],
    ["--conv-tol", "nan"],
    ["--step", "nan"],
    ["--max-time", "nan"],
])
def test_non_finite_simulation_input_is_tagged_error(tmp_path, model_h6, capsys, extra):
    nan_x0 = tmp_path / "x0.json"
    nan_x0.write_text("[NaN" + ", 1.0" * 15 + "]")
    argv = ["simulate", "--gen", "torus_mesh:4,4", "--model", model_h6]
    assert main(argv + [a.format(nan_x0=nan_x0) for a in extra]) == 1
    err = capsys.readouterr().err
    assert "error [simulate]" in err and "finite" in err


@pytest.mark.parametrize("argv", [
    ["partition", "--graph", "{graph}", "--mode", "refine"],
    ["simulate", "--graph", "{graph}", "--model", "{good_model}"],
    ["analyze", "--graph", "{graph}", "--auto-refine", "--model", "{good_model}"],
    ["simulate", "--gen", "torus_mesh:4,4", "--model", "{model}"],
    ["analyze", "--gen", "torus_mesh:4,4", "--auto-bipartite", "--model", "{model}"],
])
@pytest.mark.parametrize("bad,field", [("NaN", "A"), ("Infinity", "h"), ("-Infinity", "tau"),
                                       ("NaN", "K")])
def test_non_finite_graph_or_model_fails_at_load(tmp_path, model_h6, capsys, argv, bad,
                                                 field):
    graph = tmp_path / "g.json"
    graph.write_text('{"n": 4, "edges": [[0, 1, %s], [1, 2, 1.0], [2, 3, 1.0], [0, 3, 1.0]]}'
                     % bad)
    model = tmp_path / "m.json"
    model.write_text('{"%s": %s}' % (field, bad))
    files = {"graph": graph, "model": model, "good_model": model_h6}
    assert main([a.format(**files) for a in argv] + ["-o", str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err
    assert "error [load]" in err and "finite" in err
    if "{graph}" in argv:
        assert "edge (0,1)" in err


def test_analyze_bisects_the_fixed_point_once(tmp_path, monkeypatch, model_h6):
    # certify and lift both read u*; the model keeps the one bisection
    from patternq import cells

    made, original = [], cells.FixedPoint

    def counted(**kwargs):
        made.append(kwargs)
        return original(**kwargs)

    monkeypatch.setattr(cells, "FixedPoint", counted)
    assert main(["analyze", "--gen", "torus_mesh:4,4", "--auto-bipartite",
                 "--model", model_h6, "--simulate", "-o", str(tmp_path / "b.json")]) == 0
    assert len(made) == 1


@pytest.mark.parametrize("command", [
    ["simulate", "--gen", "torus_mesh:4,4", "--perturb", "random:3"],
    ["analyze", "--gen", "torus_mesh:4,4", "--auto-bipartite", "--simulate"],
])
def test_simulation_logs_one_info_line(tmp_path, model_h6, caplog, command):
    out = tmp_path / "out.json"
    with caplog.at_level(logging.INFO, logger="patternq"):
        assert main(command + ["--model", model_h6, "-o", str(out)]) == 0
    records = [r for r in caplog.records if r.levelno == logging.INFO]
    assert len(records) == 1 and records[0].name == "patternq.simulate"
    line = records[0].getMessage()
    fields = re.fullmatch(r"(\d+) steps, (\d+) rejected, model time (\S+), "
                          r"final derivative norm (\S+), converged True", line)
    assert fields is not None, line
    assert int(fields[1]) > 0
    if command[0] == "simulate":
        summary = json.loads(out.read_text())
        assert fields[3] == f"{summary['final_time']:.6g}"
        assert fields[4] == f"{summary['final_derivative_norm']:.3e}"


def test_back_to_back_main_calls_share_no_state(tmp_path, model_h6, monkeypatch):
    import patternq.cli as cli

    eps_seen = []
    verify = cli.verify_certificate

    def spy(qm, model, pattern, cert, eps):
        eps_seen.append(eps)
        return verify(qm, model, pattern, cert, eps)

    monkeypatch.setattr(cli, "verify_certificate", spy)
    one_class = tmp_path / "p.json"
    one_class.write_text(json.dumps({"classes": [list(range(16))]}))
    runs = [["--auto-bipartite", "--simulate", "--eps", "0.05"],
            ["--auto-bipartite", "--simulate"],
            ["--auto-bipartite"],
            ["--partition", str(one_class)]]
    bundles = []
    for k, extra in enumerate(runs):
        out = tmp_path / f"b{k}.json"
        assert main(["analyze", "--gen", "torus_mesh:4,4", "--model", model_h6, *extra,
                     "-o", str(out)]) in (0, 2)
        bundles.append(json.loads(out.read_text()))
        # another subcommand in between leaves none of its options behind
        assert main(["gen", "--kind", "path", "--n", "3", "-o", str(tmp_path / "g.json")]) == 0
    assert cli.build_parser() is cli.build_parser()
    # --eps falls back to its default once the flag is dropped
    assert eps_seen == [0.05, 0.01]
    assert [b["simulation"] is None for b in bundles] == [False, False, True, True]
    assert [b["partition"]["mode"] for b in bundles] == [
        "auto-bipartite", "auto-bipartite", "auto-bipartite", f"file:{one_class}"]


# the pentagon | hexagon rings of the certified-but-unstable buckyball split
BUCKYBALL_RINGS_SHA256 = "7b3669020610ecfb684b8f8ea7bd1efedea1d0e3b816fbde3a25adf6f0c93611"


def test_report_svg_draws_rings_only_for_the_buckyball(tmp_path, model_h6):
    bundle, svg = tmp_path / "b.json", tmp_path / "b.svg"
    # cycle:32 has the buckyball's vertex count but is drawn as one row
    assert main(["analyze", "--gen", "cycle:32", "--auto-bipartite",
                 "--model", model_h6, "-o", str(bundle)]) == 0
    assert main(["report", "--bundle", str(bundle), "--svg", str(svg)]) == 0
    text = svg.read_text()
    assert "<circle" not in text
    ys = re.findall(r'<rect x="\d+" y="(\d+)"', text)
    assert len(ys) == 32 and set(ys) == {"2"}

    pent_hex = tmp_path / "ph.json"
    pent_hex.write_text(json.dumps({"classes": [list(range(12)), list(range(12, 32))]}))
    assert main(["analyze", "--gen", "buckyball", "--partition", str(pent_hex),
                 "--model", model_h6, "-o", str(bundle)]) == 3
    assert main(["report", "--bundle", str(bundle), "--svg", str(svg)]) == 0
    text = svg.read_text()
    assert text.count("<circle") == 32 and "<rect" not in text
    assert hashlib.sha256(text.encode()).hexdigest() == BUCKYBALL_RINGS_SHA256
