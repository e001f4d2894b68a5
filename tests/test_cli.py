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
    assert main(["gen", "--gen", "torus_mesh:4,4", "-o", str(path)]) == 0
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
        assert main(["gen", "--gen", "buckyball", "-o", str(out)]) == 0
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


def _record_spectrum_orders(monkeypatch) -> list[int]:
    # the order of every jacobian_spectrum call the stability routes make
    from patternq import stability

    orders = []
    real = stability.jacobian_spectrum
    monkeypatch.setattr(stability, "jacobian_spectrum",
                        lambda s, *a, **kw: orders.append(len(s)) or real(s, *a, **kw))
    return orders


def test_analyze_solves_no_spectrum_of_order_n(tmp_path, monkeypatch, model_h6):
    # the block split is an orthogonal similarity, so its two blocks carry
    # the full Jacobian spectrum and no n x n spectrum is solved
    orders = _record_spectrum_orders(monkeypatch)
    assert main(["analyze", "--gen", "torus_mesh:16,16", "--auto-bipartite",
                 "--model", model_h6, "--simulate", "-o", str(tmp_path / "b.json")]) == 0
    assert sorted(orders) == [2, 254]


@pytest.mark.parametrize("method,orders,keys", [
    ("block", [2, 14], {"full_spectral_abscissa", "full_verdict", "block"}),
    ("smallgain", [], {"small_gain"}),
    ("all", [2, 14], {"full_spectral_abscissa", "full_verdict", "block", "small_gain"}),
])
def test_stability_runs_only_the_requested_routes(tmp_path, monkeypatch, torus_graph,
                                                  torus_bipartition, model_h6,
                                                  method, orders, keys):
    pat = tmp_path / "pat.json"
    assert main(["exist", "--graph", torus_graph, "--partition", torus_bipartition,
                 "--model", model_h6, "-o", str(pat)]) == 0
    seen = _record_spectrum_orders(monkeypatch)
    out = tmp_path / "stab.json"
    assert main(["stability", "--graph", torus_graph, "--partition", torus_bipartition,
                 "--model", model_h6, "--pattern", str(pat), "--method", method,
                 "-o", str(out)]) == 0
    assert sorted(seen) == orders
    data = json.loads(out.read_text())
    assert set(data) == keys | {"m_matrix_ok"}
    if "full_verdict" in data:
        # -1 + sqrt(t1 t2) on the bipartite checkerboard
        z = json.loads(pat.read_text())["z"]
        slopes = [12.0 * v ** 5 / (1.0 + v ** 6) ** 2 for v in z]
        expected = -1.0 + np.sqrt(slopes[0] * slopes[1])
        assert abs(data["full_spectral_abscissa"] - expected) < 1e-12
        assert data["full_verdict"] == "STABLE"


def test_stability_has_no_full_method(tmp_path, torus_graph, torus_bipartition, model_h6,
                                      capsys):
    pat = tmp_path / "pat.json"
    pat.write_text('{"z": [0.5, 1.5]}')
    with pytest.raises(SystemExit) as exc:
        main(["stability", "--graph", torus_graph, "--partition", torus_bipartition,
              "--model", model_h6, "--pattern", str(pat), "--method", "full"])
    assert exc.value.code == 2
    assert "invalid choice: 'full'" in capsys.readouterr().err


@pytest.mark.parametrize("z", ["[NaN, 1.0]", "[1.0, Infinity]", "[-Infinity, 1.0]"])
def test_non_finite_pattern_fails_at_load(tmp_path, torus_graph, torus_bipartition, model_h6,
                                          capsys, z):
    pat = tmp_path / "pat.json"
    pat.write_text('{"z": %s}' % z)
    out = tmp_path / "stab.json"
    assert main(["stability", "--graph", torus_graph, "--partition", torus_bipartition,
                 "--model", model_h6, "--pattern", str(pat), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error [load]" in err and "finite" in err
    assert not out.exists()


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
    assert main(["render", "--trace", str(trace), "--gen", "torus_mesh:4,4",
                 "--svg", str(svg)]) == 0
    ascii_art = capsys.readouterr().out.strip().splitlines()
    assert len(ascii_art) == 4
    # checkerboard alternates glyphs along each row
    row = ascii_art[0].split()
    assert row[0] != row[1] and row[0] == row[2]
    assert svg.read_text().startswith("<svg")


def _write_final_row(path, values) -> str:
    path.write_text("t," + ",".join(f"x_{i}" for i in range(len(values))) + "\n"
                    + "5," + ",".join(map(str, values)) + "\n")
    return str(path)


def test_render_hex_layout(tmp_path, capsys):
    # the cells with (i - j) mod 3 == 0 high; odd rows shift half a cell
    trace = _write_final_row(tmp_path / "tr.csv", [1.9 if (i - j) % 3 == 0 else 0.1
                                                   for i in range(4) for j in range(4)])
    svg = tmp_path / "hex.svg"
    assert main(["render", "--trace", trace, "--gen", "hex_torus:4,4", "--svg", str(svg)]) == 0
    assert capsys.readouterr().out == "# . . #\n . # . .\n. . # .\n # . . #\n"
    text = svg.read_text()
    assert text.count("<rect") == 16 and "<circle" not in text
    assert text.count('fill="#404040"') == 6   # the six high cells


def test_render_bucky_layout(tmp_path, capsys):
    values = [1.9] * 12 + [0.5, 0.1] * 10       # pentagons, then hexagons
    trace = _write_final_row(tmp_path / "tr.csv", values)
    svg = tmp_path / "bucky.svg"
    assert main(["render", "--trace", trace, "--gen", "buckyball", "--svg", str(svg)]) == 0
    assert capsys.readouterr().out == ("pentagons: " + " ".join("#" * 12) + "\n"
                                       + "hexagons:  " + " ".join(".o" * 10) + "\n")
    text = svg.read_text()
    assert text.count("<circle") == 32 and "<rect" not in text


def test_render_draws_the_svg_of_report(tmp_path, model_h6):
    # render and report --svg lay the same cells out through one function
    bundle, drawn, reported = tmp_path / "b.json", tmp_path / "r.svg", tmp_path / "b.svg"
    assert main(["analyze", "--gen", "torus_mesh:4,4", "--auto-bipartite",
                 "--model", model_h6, "-o", str(bundle)]) == 0
    u = json.loads(bundle.read_text())["pattern"]["data"]["u"]
    trace = tmp_path / "tr.csv"
    trace.write_text("t," + ",".join(f"x_{i}" for i in range(16)) + "\n"
                     + "5," + ",".join(repr(v) for v in u) + "\n")
    # grouping_tol of the h6 model: 1e-4 A with A = 2
    assert main(["render", "--trace", str(trace), "--gen", "torus_mesh:4,4",
                 "--cluster-tol", "2e-4", "--svg", str(drawn)]) == 0
    assert main(["report", "--bundle", str(bundle), "--svg", str(reported)]) == 0
    assert drawn.read_bytes() == reported.read_bytes()


def test_render_draws_a_graph_file_as_one_row(tmp_path, torus_graph, capsys):
    trace = _write_final_row(tmp_path / "tr.csv", [1.9, 0.1] * 8)
    assert main(["render", "--trace", trace, "--graph", torus_graph]) == 0
    assert capsys.readouterr().out == " ".join("#." * 8) + "\n"
    short = _write_final_row(tmp_path / "short.csv", [1.9, 0.1] * 2)
    assert main(["render", "--trace", short, "--graph", torus_graph]) == 1
    assert "error [render]: trace has 4 cells, the graph 16" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["gen", "--gen", "path:4", "--kind", "path"],
    ["gen", "--gen", "path:4", "--n", "4"],
    ["gen", "--gen", "torus_mesh:4,4", "--rows", "4"],
    ["gen", "--gen", "torus_mesh:4,4", "--cols", "4"],
    ["render", "--trace", "tr.csv", "--gen", "torus_mesh:4,4", "--layout", "torus"],
    ["render", "--trace", "tr.csv", "--gen", "torus_mesh:4,4", "--rows", "4"],
    ["render", "--trace", "tr.csv", "--gen", "torus_mesh:4,4", "--cols", "4"],
    ["analyze", "--gen", "torus_mesh:4,4", "--auto-refine", "--model", "h6.json"],
])
def test_lattice_options_other_than_the_spec_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
def test_render_cluster_tol_must_be_finite_and_nonnegative(tmp_path, capsys, tol):
    # nan and inf would draw one group, a negative gap every cell on its own
    trace = _write_final_row(tmp_path / "tr.csv", [1.9, 0.1] * 8)
    assert main(["render", "--trace", trace, "--gen", "torus_mesh:4,4",
                 f"--cluster-tol={tol}"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert (f"error [render]: cluster-tol must be finite and nonnegative, got {float(tol)}"
            in out.err)


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
    code = main(["analyze", "--gen", "torus_mesh:4,4", "--model", model_h6, "-o", str(bundle)])
    data = json.loads(bundle.read_text())
    assert len(data["partition"]["data"]["classes"]) == 1
    assert code == 2  # single class: minimum eigenvalue is 1, inconclusive


def test_bundle_holds_one_minimum_quotient_eigenvalue(tmp_path, model_h6):
    # the 91-class refinement of {17} | rest on the 30x30 hex torus, where
    # eigh and eigvalsh differ in the last bits of the minimum eigenvalue
    seed, part, bundle = (tmp_path / f"{name}.json" for name in ("seed", "part", "b"))
    seed.write_text(json.dumps({"classes": [[17], [v for v in range(900) if v != 17]]}))
    assert main(["partition", "--gen", "hex_torus:30,30", "--mode", "refine",
                 "--seed", str(seed), "-o", str(part)]) == 0
    assert main(["analyze", "--gen", "hex_torus:30,30", "--partition", str(part),
                 "--model", model_h6, "-o", str(bundle)]) == 2
    data = json.loads(bundle.read_text())
    assert len(data["partition"]["data"]["classes"]) == 91
    eigenvalues = data["quotient"]["data"]["eigenvalues"]
    cert = data["certificate"]["data"]
    assert eigenvalues[-1] == cert["lambda_r"]
    assert cert["condition_value"] == abs(cert["slope_at_u_star"]) * cert["lambda_r"]


def test_bundle_determinism_modulo_timestamp(tmp_path, model_h6):
    b1, b2 = tmp_path / "b1.json", tmp_path / "b2.json"
    for out in (b1, b2):
        assert main(["analyze", "--gen", "torus_mesh:4,4", "--auto-bipartite",
                     "--model", model_h6, "--simulate", "-o", str(out)]) == 0
    d1, d2 = json.loads(b1.read_text()), json.loads(b2.read_text())
    d1.pop("created")
    d2.pop("created")
    assert dumps_canonical(d1) == dumps_canonical(d2)


_MODEL_SHA = "bac1254704efc57d805fa7d96bef4257e9596cdafab2bd213ec2f1ca6a564546"


@pytest.mark.parametrize("argv,hashes", [
    pytest.param(["analyze", "--gen", "torus_mesh:4,4", "--auto-bipartite"], {
        "graph": "c18f3c3bca5600f890be05b2be4151bae1d0af4a393bb6cba4062cb2c363ac49",
        "model": _MODEL_SHA,
        "partition": "e824394c97b7a8a13157c72cd3fac5b93573634123c7de0508b5a8c597aa46cb",
    }, id="torus_mesh-4x4"),
    # two rows: the doubled vertical contacts have weight 2.0
    pytest.param(["analyze", "--gen", "torus_mesh:2,4", "--auto-bipartite"], {
        "graph": "9e2220f00bf8ef2c9b5b070b4bb6825e93348fffa81bd615b5da413a38abe113",
        "model": _MODEL_SHA,
        "partition": "6a79088f7c8d4bda0fd9bb0467fd13053c19564ba37c9b4da29faed05a764f8d",
    }, id="torus_mesh-2x4"),
    pytest.param(["analyze", "--gen", "buckyball"], {
        "graph": "943d029a33cfc352b82c930453df9276563bb243b893e75dc29ece770ea3ffa7",
        "model": _MODEL_SHA,
        "partition": "94cbdecb231c417ec772c265f3b60978bff2846db2154325692007e281ecf73a",
    }, id="buckyball"),
    # the whole file that gen writes
    pytest.param(["gen", "--gen", "hex_torus:30,30"], {
        "file": "52429644731e3007487193cf8f98154545bf4e0863354f1f4d11f23b7ee5bf8e",
    }, id="gen-hex_torus-30x30"),
])
def test_bundle_input_sections_keep_their_hashes(tmp_path, model_h6, argv, hashes):
    # the graph, model and partition sections hold no computed floats, so
    # their hashes pin the canonical encoder byte for byte
    out = tmp_path / "out.json"
    model = ["--model", model_h6] if argv[0] == "analyze" else []
    assert main(argv + model + ["-o", str(out)]) in (0, 2)
    if argv[0] == "gen":
        assert {"file": hashlib.sha256(out.read_bytes()).hexdigest()} == hashes
    else:
        data = json.loads(out.read_text())
        assert {k: data[k]["sha256"] for k in ("graph", "model", "partition")} == hashes


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


def _reseal(data, *names):
    """Re-hash the named sections in order, moving every link to each of
    them onto its new hash, as a forger who knows the format would."""
    for name in names:
        section = data[name]
        section.pop("sha256")
        section["sha256"] = hashlib.sha256(dumps_canonical(section).encode()).hexdigest()
        for other in data.values():
            if isinstance(other, dict) and name in other.get("upstream", {}):
                other["upstream"][name] = section["sha256"]


def _analyze_to_json(tmp_path, model, *extra) -> tuple:
    bundle = tmp_path / "b.json"
    assert main(["analyze", "--gen", "torus_mesh:4,4", "--auto-bipartite",
                 "--model", model, *extra, "-o", str(bundle)]) == 0
    return bundle, json.loads(bundle.read_text())


@pytest.mark.parametrize("relink", [
    pytest.param(lambda up, data: up.clear(), id="missing"),
    pytest.param(lambda up, data: up.update(graph=data["graph"]["sha256"]), id="extra"),
])
def test_report_refuses_links_that_differ_from_the_layout(tmp_path, model_h6, capsys,
                                                          relink):
    # every hash verifies after the reseal, so only the layout catches it
    bundle, data = _analyze_to_json(tmp_path, model_h6, "--simulate")
    relink(data["stability"]["upstream"], data)
    _reseal(data, "stability", "simulation")
    bundle.write_text(dumps_canonical(data))
    capsys.readouterr()
    assert main(["report", "--bundle", str(bundle)]) == 1
    assert ("error [report]: section 'stability' upstream must link exactly ['pattern']"
            in capsys.readouterr().err)


@pytest.mark.parametrize("forge,missing", [
    pytest.param(lambda data: data.pop("tool"), "'tool'", id="no-tool"),
    pytest.param(lambda data: data.pop("schema"), "'schema'", id="no-schema"),
    pytest.param(lambda data: (data["certificate"]["data"].pop("lambda_r"),
                               _reseal(data, "certificate", "pattern", "stability")),
                 "'lambda_r'", id="resealed-without-lambda_r"),
    # Python 3.11 added the ", not 'str'"
    pytest.param(lambda data: data.update(tool="x"),
                 "a field has the wrong type: string indices must be integers(, not 'str')?",
                 id="mistyped-tool"),
    pytest.param(lambda data: (data["certificate"]["data"].update(lambda_r=None),
                               _reseal(data, "certificate", "pattern", "stability")),
                 r"a field has the wrong type: unsupported format string passed to "
                 r"NoneType\.__format__", id="resealed-null-lambda_r"),
])
def test_report_of_a_verified_bundle_missing_a_field_is_tagged(tmp_path, model_h6, capsys,
                                                               forge, missing):
    # missing is a pattern for the whole message
    bundle, data = _analyze_to_json(tmp_path, model_h6)
    forge(data)
    bundle.write_text(dumps_canonical(data))
    capsys.readouterr()
    assert main(["report", "--bundle", str(bundle)]) == 1
    assert re.fullmatch(rf"error \[report\]: {missing}\n", capsys.readouterr().err)


def test_gen_missing_params_is_tagged_error(capsys):
    assert main(["gen", "--gen", "torus_mesh"]) == 1
    err = capsys.readouterr().err
    assert "error [gen]" in err
    assert "torus_mesh takes rows, cols: missing a required argument: 'rows'" in err
    assert main(["gen", "--gen", "path"]) == 1
    assert "path takes n: missing a required argument: 'n'" in capsys.readouterr().err
    assert main(["partition", "--gen", "buckyball:3", "--mode", "refine"]) == 1
    assert ("error [gen]: buckyball takes no parameters: too many positional arguments"
            in capsys.readouterr().err)


@pytest.mark.parametrize("argv", [
    ["simulate", "--gen", "torus_mesh:4,4", "--model", "{model}", "--perturb", "cell:99"],
    ["simulate", "--gen", "torus_mesh:4,4", "--model", "{model}", "--perturb", "cell:-1"],
    ["simulate", "--gen", "torus_mesh:4,4", "--model", "{model}", "--perturb", "random:abc"],
    ["simulate", "--gen", "torus_mesh:4,4", "--model", "{model}", "--perturb", "cell:"],
    ["render", "--trace", "{empty}", "--gen", "torus_mesh:4,4"],
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
    # lattices whose negative sides multiply to the trace's 4 cells
    ["render", "--trace", "{trace4}", "--gen", "torus_mesh:-2,-2"],
    ["render", "--trace", "{trace4}", "--gen", "hex_torus:-1,-4"],
    # vertex ids beyond the float range, which the bulk checks convert to
    ["quotient", "--graph", "{huge_edge}", "--partition", "{partition}"],
    ["quotient", "--gen", "torus_mesh:4,4", "--partition", "{huge_class}"],
    ["partition", "--gen", "torus_mesh:4,4", "--mode", "orbits", "--perms", "{huge_perm}"],
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
    trace4 = tmp_path / "trace4.csv"
    trace4.write_text("t,x_0,x_1,x_2,x_3\n0,1,0,1,0\n")
    files = {"model": model_h6, "partition": torus_bipartition,
             "empty": str(empty), "z_list": str(z_list), "string": str(string),
             "z_object": str(z_object), "trace4": str(trace4)}
    # right top-level type, wrong field type
    for name, text in [("bad_model", '{"A": [1]}'), ("bad_classes", '{"classes": 5}'),
                       ("bad_z", '{"z": {"a": 1}}'), ("bad_perms", '{"perms": 5}'),
                       ("bad_edges", '{"n": 4, "edges": 3}'),
                       ("bad_n", '{"n": [4], "edges": []}'), ("bad_x0", '[{"a": 1}]'),
                       ("huge_edge", '{"n": 4, "edges": [[%d, 1, 1.0]]}' % 10**400),
                       ("huge_class", '{"classes": [[%d], [0]]}' % 10**400),
                       ("huge_perm", '{"perms": [[%d, 0, 1, 2]]}' % 10**400)]:
        path = tmp_path / f"{name}.json"
        path.write_text(text + "\n")
        files[name] = str(path)
    assert main([arg.format(**files) for arg in argv]) == 1
    assert "error [" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "simulate"])
@pytest.mark.parametrize("eps", ["0", "-5", "inf", "nan"])
def test_eps_must_be_finite_and_positive(tmp_path, monkeypatch, model_h6, capsys, command,
                                        eps):
    # zero starts on u*, a negative eps heads for the class-swapped twin and
    # inf for the corners of the box; analyze refuses it before the pipeline
    import patternq.cli as cli

    def refuse(*args):
        raise AssertionError("quotient built before --eps was checked")

    monkeypatch.setattr(cli, "quotient", refuse)
    extra = ["--auto-bipartite", "--simulate"] if command == "analyze" else []
    assert main([command, "--gen", "torus_mesh:4,4", "--model", model_h6, *extra,
                 f"--eps={eps}", "-o", str(tmp_path / "out.json")]) == 1
    assert (f"error [simulate]: eps must be finite and positive, got {float(eps)}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("argv,field", [
    (["quotient", "--graph", "{nameless}", "--partition", "{partition}"], "edges"),
    (["quotient", "--gen", "torus_mesh:4,4", "--partition", "{nameless}"], "classes"),
    (["partition", "--gen", "torus_mesh:4,4", "--mode", "orbits", "--perms", "{nameless}"],
     "perms"),
    (["stability", "--gen", "torus_mesh:4,4", "--partition", "{partition}",
      "--model", "{model}", "--pattern", "{nameless}"], "z"),
])
def test_missing_field_is_named(tmp_path, model_h6, torus_bipartition, capsys, argv, field):
    nameless = tmp_path / "nameless.json"
    nameless.write_text('{"n": 16}\n')
    files = {"nameless": str(nameless), "partition": torus_bipartition, "model": model_h6}
    assert main([arg.format(**files) for arg in argv]) == 1
    assert f"error [load]: missing field {field!r}, which must be" in capsys.readouterr().err


@pytest.mark.parametrize("args,message", [
    (["--gen", "torus_mesh:4,x"],
     "error [gen]: torus_mesh sizes must be integers, got ('4', 'x')"),
    (["--gen", "torus_mesh:4,4", "--perturb", "cell:x"],
     "error [simulate]: bad --perturb spec 'cell:x': want cell:<k> or random:<seed>"),
    (["--gen", "torus_mesh:4,4", "--perturb", "random:1.5"],
     "error [simulate]: bad --perturb spec 'random:1.5': want cell:<k> or random:<seed>"),
    (["--gen", "torus_mesh:4,4", "--perturb", "random:-1"],
     "error [simulate]: bad --perturb spec 'random:-1': the seed must be >= 0"),
])
def test_malformed_specs_are_named(model_h6, capsys, args, message):
    assert main(["simulate", *args, "--model", model_h6]) == 1
    err = capsys.readouterr().err
    assert message in err and "invalid literal" not in err


@pytest.mark.parametrize("vertex", [2**70, -1])
def test_out_of_range_ids_keep_their_messages(tmp_path, capsys, vertex):
    # the bulk checks must neither overflow int64 nor change the message
    graph, part, perms = (tmp_path / f"{name}.json" for name in ("g", "p", "perms"))
    graph.write_text(json.dumps({"n": 3, "edges": [[vertex, 1, 1.0]]}))
    assert main(["quotient", "--graph", str(graph), "--partition", str(part)]) == 1
    assert f"error [load]: edge ({vertex},1) outside [0,3)" in capsys.readouterr().err
    graph.write_text(json.dumps({"n": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0]]}))
    part.write_text(json.dumps({"classes": [[0, vertex], [1, 2]]}))
    assert main(["quotient", "--graph", str(graph), "--partition", str(part)]) == 1
    assert f"error [load]: vertex {vertex} outside [0,3)" in capsys.readouterr().err
    perm = [1, 0, vertex, 3]
    perms.write_text(json.dumps({"perms": [perm]}))
    assert main(["partition", "--gen", "torus_mesh:2,2", "--mode", "orbits",
                 "--perms", str(perms)]) == 1
    assert (f"error [partition]: not a permutation of [0,4): {perm}"
            in capsys.readouterr().err)


def test_write_errors_are_tagged_write(tmp_path, model_h6, capsys):
    missing = tmp_path / "missing" / "out"
    assert main(["gen", "--gen", "path:4", "-o", str(missing)]) == 1
    assert "error [write]" in capsys.readouterr().err
    trace = tmp_path / "trace.csv"
    assert main(["simulate", "--gen", "path:4", "--model", model_h6,
                 "--trace", str(missing)]) == 1
    assert "error [write]" in capsys.readouterr().err
    assert main(["simulate", "--gen", "path:4", "--model", model_h6,
                 "--trace", str(trace)]) == 0
    assert main(["render", "--trace", str(trace), "--gen", "path:4",
                 "--svg", str(missing)]) == 1
    assert "error [write]" in capsys.readouterr().err


def test_analyze_builds_each_intermediate_once(tmp_path, monkeypatch, model_h6):
    # count calls at every module that binds the function, so calls from
    # one library module into another are seen too
    import sys
    from functools import cached_property

    from patternq import existence, graphs, partitions

    counts = dict.fromkeys(["scaled_adjacency", "is_equitable", "_class_sums_checked",
                            "quotient", "certify", "symmetric"], 0)

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
    # the quotient's symmetric form, read by the quotient report, certify,
    # the block split and the small-gain radius
    symmetric = cached_property(counted(partitions.QuotientModel.symmetric.func))
    symmetric.__set_name__(partitions.QuotientModel, "symmetric")
    monkeypatch.setattr(partitions.QuotientModel, "symmetric", symmetric)
    assert main(["analyze", "--gen", "torus_mesh:4,4", "--auto-bipartite",
                 "--model", model_h6, "--simulate", "-o", str(tmp_path / "b.json")]) == 0
    # quotient checks equitability on the class sums it builds the matrix
    # from, so the public is_equitable has no caller here
    assert counts == {"scaled_adjacency": 1, "is_equitable": 0, "_class_sums_checked": 1,
                      "quotient": 1, "certify": 1, "symmetric": 1}


@pytest.mark.parametrize("argv,certifies", [
    (["quotient", "--partition", "{partition}"], 0),
    (["exist", "--partition", "{partition}", "--model", "{model}"], 1),
    (["stability", "--partition", "{partition}", "--model", "{model}",
      "--pattern", "{pattern}"], 0),
    (["partition", "--mode", "check", "--seed", "{partition}"], 0),
    (["simulate", "--perturb", "vr", "--partition", "{partition}", "--model", "{model}"], 1),
])
def test_every_command_builds_one_quotient(tmp_path, monkeypatch, model_h6, torus_bipartition,
                                           argv, certifies):
    # the same counting at every module binding as for analyze above
    import sys

    from patternq import existence, partitions

    pattern = tmp_path / "pat.json"
    assert main(["exist", "--gen", "torus_mesh:4,4", "--partition", torus_bipartition,
                 "--model", model_h6, "-o", str(pattern)]) == 0
    counts = dict.fromkeys(["quotient", "certify"], 0)

    def counted(fn):
        def wrapper(*args, **kwargs):
            counts[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    originals = [partitions.quotient, existence.certify]
    wrappers = {fn.__name__: counted(fn) for fn in originals}
    for name, module in list(sys.modules.items()):
        if name.startswith("patternq"):
            for attr, value in list(vars(module).items()):
                if any(value is fn for fn in originals):
                    monkeypatch.setattr(module, attr, wrappers[value.__name__])
    files = {"partition": torus_bipartition, "model": model_h6, "pattern": str(pattern)}
    assert main([argv[0], "--gen", "torus_mesh:4,4", *(a.format(**files) for a in argv[1:]),
                 "-o", str(tmp_path / "out.json")]) == 0
    assert counts == {"quotient": 1, "certify": certifies}


def test_analyze_auto_refine_builds_the_operator_once(tmp_path, monkeypatch, model_h6):
    # the refinement and the quotient share the graph's one operator
    from patternq import graphs

    calls = []
    real = graphs._build_operator
    monkeypatch.setattr(graphs, "_build_operator", lambda g: calls.append(g.n) or real(g))
    assert main(["analyze", "--gen", "hex_torus:6,6",
                 "--model", model_h6, "-o", str(tmp_path / "b.json")]) == 2
    assert calls == [36]


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
    (["--gen", "hex_torus:6,6", "--mode", "refine"], 1, True),
    (["--gen", "torus_mesh:4,4", "--mode", "check", "--seed", "{partition}"], 1, True),
    (["--gen", "torus_mesh:4,4", "--mode", "orbits", "--perms", "{perms}"], 1, True),
    # NotEquitable carries the witness, so no second check rebuilds it
    (["--gen", "torus_mesh:4,4", "--mode", "check", "--seed", "{rows}"], 1, False),
])
def test_partition_builds_operator_once_per_check(tmp_path, monkeypatch, torus_bipartition,
                                                  argv, builds, equitable):
    from patternq import graphs, partitions
    from patternq.graphs import torus_mesh

    from helpers import torus_domino_generators

    perms = tmp_path / "perms.json"
    perms.write_text(json.dumps({"perms": torus_domino_generators(4, 4)}))
    rows = tmp_path / "rows.json"
    rows.write_text(json.dumps({"classes": [list(range(4)), list(range(4, 16))]}))
    counts = dict.fromkeys(["_build_operator", "is_equitable"], 0)

    def count(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    # every scaled_adjacency call on a graph returns the operator that
    # graphs._build_operator built for it on the first call
    count(graphs, "_build_operator")
    count(partitions, "is_equitable")
    out = tmp_path / "out.json"
    files = {"partition": torus_bipartition, "perms": str(perms), "rows": str(rows)}
    assert main(["partition"] + [a.format(**files) for a in argv] + ["-o", str(out)]) == 0
    assert counts == {"_build_operator": builds, "is_equitable": 0}
    data = json.loads(out.read_text())
    assert data["equitable"] is equitable
    assert (data["witness"] is None) is equitable
    if not equitable:
        pi = partitions.make_partition(data["classes"], 16)
        assert data["witness"] == list(partitions.is_equitable(torus_mesh(4, 4), pi).witness)


def test_analyze_auto_bipartite_on_odd_cycles(tmp_path, model_h6, capsys):
    g = tmp_path / "tri.json"
    assert main(["gen", "--gen", "triangle_bridge", "-o", str(g)]) == 0
    assert main(["analyze", "--graph", str(g), "--auto-bipartite",
                 "--model", model_h6]) == 1
    assert "error [partition]" in capsys.readouterr().err


def test_log_env_var_smoke(tmp_path, monkeypatch, model_h6):
    monkeypatch.setenv("PATTERNQ_LOG", "debug")
    out = tmp_path / "g.json"
    assert main(["gen", "--gen", "path:4", "-o", str(out)]) == 0


def test_missing_pattern_stage_tag(tmp_path, torus_graph, model_h6, capsys):
    # inequitable partition surfaces as a tagged stage error, exit 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"classes": [[0], list(range(1, 16))]}))
    assert main(["exist", "--graph", torus_graph, "--partition", str(bad),
                 "--model", model_h6]) == 1
    assert "error [quotient]" in capsys.readouterr().err


_ON_TORUS = ["--gen", "torus_mesh:4,4"]
_ON_TWO_EDGES = ["--graph", "{two_edges}", "--partition", "{ends}", "--model", "{model}"]


@pytest.mark.parametrize("argv,tag", [
    # {0} | rest is not equitable on the torus
    (["quotient", *_ON_TORUS, "--partition", "{corner}"], "quotient"),
    (["exist", *_ON_TORUS, "--partition", "{corner}", "--model", "{model}"], "quotient"),
    (["stability", *_ON_TORUS, "--partition", "{corner}", "--model", "{model}",
      "--pattern", "{z}"], "quotient"),
    (["analyze", *_ON_TORUS, "--partition", "{corner}", "--model", "{model}"], "quotient"),
    (["simulate", *_ON_TORUS, "--partition", "{corner}", "--model", "{model}",
      "--perturb", "vr"], "quotient"),
    # check mode reports an inequitable partition with its witness
    (["partition", *_ON_TORUS, "--mode", "check", "--seed", "{corner}"], None),
    (["stability", *_ON_TORUS, "--partition", "{checkerboard}", "--model", "{model}",
      "--pattern", "{z}"], "stability"),
    # two disjoint edges, one class per edge: equitable, but the reduced
    # graph is disconnected
    (["exist", *_ON_TWO_EDGES], "solve"),
    (["simulate", *_ON_TWO_EDGES, "--perturb", "vr"], "certify"),
    (["analyze", *_ON_TWO_EDGES], "graph"),
])
def test_each_failing_stage_names_its_tag(tmp_path, model_h6, torus_bipartition, capsys,
                                         argv, tag):
    files = {"model": model_h6, "checkerboard": torus_bipartition}
    for name, data in [("corner", {"classes": [[0], list(range(1, 16))]}),
                       ("z", {"z": [1.0, 0.5]}),
                       ("two_edges", {"n": 4, "edges": [[0, 1, 1.0], [2, 3, 1.0]]}),
                       ("ends", {"classes": [[0, 1], [2, 3]]})]:
        files[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    out = tmp_path / "out.json"
    code = main([arg.format(**files) for arg in argv] + ["-o", str(out)])
    err = capsys.readouterr().err
    if tag is None:
        assert (code, err) == (0, "")
        data = json.loads(out.read_text())
        assert data["equitable"] is False and data["witness"] == [1, 0, 1, 2, 0.25, 0.0]
    else:
        assert code == 1 and err.startswith(f"error [{tag}]: "), err


def test_a_failed_allocation_is_a_tagged_stage_failure(tmp_path, monkeypatch, model_h6,
                                                       capsys):
    # at 256x256 numpy cannot allocate the 32 GiB operator of the block split
    from patternq import stability

    def refuse(qm):
        raise MemoryError("Unable to allocate 32.0 GiB")

    monkeypatch.setattr(stability, "block_decompose", refuse)
    assert main(["analyze", *_ON_TORUS, "--auto-bipartite", "--model", model_h6,
                 "-o", str(tmp_path / "b.json")]) == 1
    assert capsys.readouterr().err.startswith("error [stability]: Unable to allocate 32.0 GiB")


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
    ["analyze", "--graph", "{graph}", "--model", "{good_model}"],
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
        assert main(["gen", "--gen", "path:3", "-o", str(tmp_path / "g.json")]) == 0
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


def test_report_svg_refuses_a_source_that_lays_out_other_cells(tmp_path, model_h6, capsys):
    # a resealed source whose grid holds more cells than the pattern
    bundle, data = _analyze_to_json(tmp_path, model_h6)
    data["graph"]["source"] = "torus_mesh:8,8"
    _reseal(data, "graph", "partition", "quotient", "certificate", "pattern", "stability")
    bundle.write_text(dumps_canonical(data))
    capsys.readouterr()
    assert main(["report", "--bundle", str(bundle), "--svg", str(tmp_path / "b.svg")]) == 1
    assert ("error [report]: torus_mesh:8,8 lays out 64 cells, got 16"
            in capsys.readouterr().err)
