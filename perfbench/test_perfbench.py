"""Tests of the benchmark itself: seeded inputs, oracles and tracer.

Run with `python3 -m pytest perfbench` from the repository root.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from patternq import cli  # noqa: E402


def _inputs(name: str, seed: int, directory: Path) -> dict[str, bytes]:
    directory.mkdir()
    workloads.prepare(name, seed, directory)
    return run._tree(directory)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_per_seed_and_differ_between_seeds(tmp_path, name):
    first = _inputs(name, 7, tmp_path / "a")
    assert first == _inputs(name, 7, tmp_path / "b")
    assert first != _inputs(name, 8, tmp_path / "c")


def test_sweep_bands_straddle_each_threshold(tmp_path):
    ops = workloads.prepare("sweep-small", 3, tmp_path).ops
    assert len(ops) == workloads.SWEEP_STRATA * workloads.SWEEP_CYCLES
    assert all(len(op.calls) == 12 for op in ops)
    for graph, classes in workloads.SWEEP_GRAPHS:
        h_star = workloads.sweep_threshold(oracles.lattice(graph), classes)
        models = [json.loads((tmp_path / c.argv[c.argv.index("--model") + 1]).read_text())
                  for c in ops[0].calls if c.argv[2] == graph]
        ratios = sorted(m["h"] / h_star for m in models)
        assert 0.8 <= ratios[0] <= 0.95 < 1.05 <= ratios[1] <= 1.25 < 1.5 <= ratios[2] <= 2.5


@pytest.fixture
def analyzed(tmp_path, monkeypatch):
    """A real bundle: certified, stable checkerboard on the 4x4 torus."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.json").write_text(json.dumps(workloads.H6))
    rc = cli.main(["analyze", "--gen", "torus_mesh:4,4", "--auto-bipartite",
                   "--model", "m.json", "--simulate", "-o", "b.json"])
    return rc, json.loads((tmp_path / "b.json").read_text())


def _check(rc, bundle):
    oracles.check_analyze(bundle, rc, oracles.lattice("torus_mesh:4,4"),
                          oracles.checkerboard(4, 4), 6.0, simulated=True)


def test_analyze_oracle_accepts_the_real_bundle(analyzed):
    _check(*analyzed)
    workloads.report_accepts("b.json")


def test_analyze_oracle_rejects_a_flipped_verdict(analyzed):
    rc, bundle = analyzed
    bundle["certificate"]["data"]["verdict"] = "INCONCLUSIVE"
    with pytest.raises(oracles.Mismatch, match="verdict"):
        _check(rc, bundle)


def test_analyze_oracle_rejects_a_wrong_exit_code(analyzed):
    with pytest.raises(oracles.Mismatch, match="exit code"):
        _check(3, analyzed[1])


def test_analyze_oracle_rejects_a_wrong_pattern(analyzed):
    rc, bundle = analyzed
    bundle["pattern"]["data"]["z"][0] += 1e-6
    with pytest.raises(oracles.Mismatch, match="residual"):
        _check(rc, bundle)


def test_report_oracle_rejects_a_tampered_section(analyzed, tmp_path):
    bundle = analyzed[1]
    bundle["stability"]["data"]["full_spectral_abscissa"] -= 1.0
    (tmp_path / "b.json").write_text(json.dumps(bundle))
    with pytest.raises(oracles.Mismatch, match="report rejected"):
        workloads.report_accepts("b.json")


def _refined(tmp_path, monkeypatch, side: int, v: int):
    monkeypatch.chdir(tmp_path)
    n = side * side
    (tmp_path / "s.json").write_text(json.dumps({"classes": [[v], [u for u in range(n) if u != v]]}))
    assert cli.main(["partition", "--gen", f"hex_torus:{side},{side}", "--mode", "refine",
                     "--seed", "s.json", "-o", "r.json"]) == 0
    return json.loads((tmp_path / "r.json").read_text())


def test_refinement_oracle_accepts_real_output_and_rejects_a_non_equitable_partition(
        tmp_path, monkeypatch):
    side, v = 12, 29
    out = _refined(tmp_path, monkeypatch, side, v)
    graph_w = oracles.lattice(f"hex_torus:{side},{side}")
    expected = oracles.hex_point_orbits(side, side, v)
    oracles.check_refinement(out, graph_w, expected)

    big = max(range(len(out["classes"])), key=lambda k: len(out["classes"][k]))
    moved = out["classes"][big].pop()
    out["classes"][(big + 1) % len(out["classes"])].append(moved)
    with pytest.raises(oracles.Mismatch, match="not equitable"):
        oracles.check_refinement(out, graph_w, expected)


def test_refinement_oracle_rejects_a_different_equitable_partition(tmp_path, monkeypatch):
    out = _refined(tmp_path, monkeypatch, 12, 29)
    with pytest.raises(oracles.Mismatch, match="orbit partition"):
        oracles.check_refinement(out, oracles.lattice("hex_torus:12,12"),
                                 oracles.hex_point_orbits(12, 12, 30))


def test_steady_state_oracle(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.json").write_text(json.dumps(workloads.H6))
    x0 = workloads._torus_start(np.random.default_rng(0), 4)
    (tmp_path / "x0.json").write_text(json.dumps(x0))
    assert cli.main(["simulate", "--gen", "torus_mesh:4,4", "--model", "m.json",
                     "--x0", "x0.json", "-o", "s.json"]) == 0
    summary = json.loads((tmp_path / "s.json").read_text())
    graph_w = oracles.lattice("torus_mesh:4,4")
    oracles.check_steady(summary, graph_w, 6.0)

    summary["final_state"][3] += 1e-6
    with pytest.raises(oracles.Mismatch, match="T\\(Px\\)"):
        oracles.check_steady(summary, graph_w, 6.0)
    summary["converged"] = False
    with pytest.raises(oracles.Mismatch, match="converge"):
        oracles.check_steady(summary, graph_w, 6.0)


def test_oracle_graphs_match_the_lattice_definitions():
    bucky = oracles.lattice("buckyball")
    assert bucky.sum() == 2 * 90
    assert (bucky[:12].sum(axis=1) == 5).all() and (bucky[:12, :12] == 0).all()
    assert (bucky[12:, :12].sum(axis=1) == 3).all() and (bucky[12:, 12:].sum(axis=1) == 3).all()
    assert oracles.lattice("hex_torus:6,6").sum(axis=1).tolist() == [6.0] * 36
    assert len(oracles.hex_point_orbits(30, 30, 17)) == 91


def test_tracer_counts_calls_per_analyze_and_restores_bindings(analyzed):
    from patternq import existence, partitions, stability

    originals = (cli.main, partitions.quotient, existence.certify, stability.quotient)
    t = tracing.Tracer()
    t.install()
    try:
        assert cli.main is not originals[0] and stability.quotient is not originals[3]
        t.active = True
        rc = cli.main(["analyze", "--gen", "torus_mesh:4,4", "--auto-bipartite",
                       "--model", "m.json", "--simulate", "-o", "b.json"])
        t.active = False
    finally:
        t.uninstall()
    assert rc == 0
    assert (cli.main, partitions.quotient, existence.certify, stability.quotient) == originals
    totals = t.totals()
    assert totals["partitions.quotient.calls"] == 5
    assert totals["existence.certify.calls"] == 3
    assert totals["spectral.jacobian_spectrum.calls"] == 3
    assert totals["cli.main.calls"] == 1
    assert totals["existence.newton_iters"] > 0
    assert totals["cells.t_eval.cells"] >= totals["cells.t_eval.calls"] > 0
    assert [s.name for s in t.spans if s.parent is None] == ["cli.main"]
    main_span = t.spans[0]
    assert sum(t.self_times()) == pytest.approx((main_span.end_ns - main_span.start_ns) * 1e-9)


def test_self_time_subtracts_the_union_of_child_spans():
    t = tracing.Tracer()
    t.spans = [tracing.Span("a", 0, 100, None, 0),
               tracing.Span("b", 10, 40, 0, 0),
               tracing.Span("c", 50, 70, 0, 0),
               tracing.Span("d", 20, 30, 1, 0)]
    assert t.self_times() == pytest.approx([50e-9, 20e-9, 20e-9, 10e-9])
    assert t.inclusive_seconds("b") == pytest.approx(30e-9)


def test_speed_sampler_samples_during_the_op_and_restores_the_handler():
    import signal

    import probe

    before = signal.getsignal(signal.SIGALRM)
    with probe.SpeedSampler(interval=0.05) as speed:
        end = time.perf_counter() + 0.4
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.samples) >= 5
    assert 0 < speed.stolen < 0.2
    assert speed.scale() > 0

    result, wall, ref = probe.measure(lambda: time.sleep(0.3) or 7)
    assert result == 7 and 0.29 < wall < 0.4 and ref > 0
