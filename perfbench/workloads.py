"""Seeded inputs, ops and oracle bindings of the four benchmark workloads.

`prepare(name, seed, directory)` writes every input file of one workload
into `directory` and returns the ops to run there.  All randomness comes
from the seed: the same seed writes byte-identical files (including
`ops.json`, the argv of every op), another seed writes different ones.
Ops name their files relative to `directory`, so run them from it.
An op is one patternq call, except on sweep-small, where it is one pass of
twelve.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from patternq import cli

import oracles

H6 = {"A": 2.0, "K": 1.0, "h": 6.0, "tau": 1.0}

SWEEP_GRAPHS = (
    ("buckyball", [list(range(12)), list(range(12, 32))]),
    ("hex_torus:6,6", [[v for v in range(36) if (v // 6 - v % 6) % 3 == 0],
                       [v for v in range(36) if (v // 6 - v % 6) % 3 != 0]]),
    ("torus_mesh:4,4", oracles.checkerboard(4, 4)),
    ("triangle_bridge", [[2, 5], [0, 1, 3, 4, 6, 7]]),
)
# Hill exponent bands as multiples of each graph's threshold h* = 2/|lam_min|
SWEEP_BANDS = (("below", 0.8, 0.95), ("near", 1.05, 1.25), ("far", 1.5, 2.5))
# Passes come in cycles of SWEEP_STRATA.  Within a cycle each (graph, band)
# draws its h once from every equal-width stratum of the band, in seeded
# order: an op's cost swings threefold across the near band, and independent
# draws made a 15 s run's throughput depend on the seed by 15%.
SWEEP_STRATA = 3
SWEEP_CYCLES = 4


@dataclass
class Call:
    """One patternq invocation and the oracle that judges its exit code and output."""

    argv: list[str]
    check: Callable[[int], None]


@dataclass
class Op:
    """What the benchmark times as one op: calls run back to back, each
    checked after the op ends (so outputs must not overwrite each other)."""

    calls: list[Call]


@dataclass
class Prepared:
    ops: list[Op]
    warmup: list[str]
    # whether op times follow the interpreter-bound speed probe (probe.py)
    # and are reported at its reference speed; see _simulate_torus32
    rescale: bool = True


def _write(directory: Path, name: str, obj) -> str:
    (directory / name).write_text(json.dumps(obj) + "\n")
    return name


def _model(directory: Path, name: str, h: float) -> str:
    return _write(directory, name, dict(H6, h=h))


def report_accepts(bundle_path: str) -> None:
    """`patternq report --bundle` must accept the bundle's hash chain."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(["report", "--bundle", bundle_path])
    oracles.require(rc == 0, f"report rejected the bundle: {err.getvalue().strip()}")


def _lattice(graph: str):
    """The benchmark's own weight matrix of `graph`, built on first use so
    that oracle preparation stays out of the set-up time."""
    return functools.cache(lambda: oracles.lattice(graph))


def _analyze_check(bundle_path: str, graph_w, classes, h: float, simulated: bool):
    def check(rc: int) -> None:
        with open(bundle_path) as fh:
            bundle = json.load(fh)
        oracles.check_analyze(bundle, rc, graph_w(), classes, h, simulated)
        report_accepts(bundle_path)

    return check


def _analyze_torus16(rng: np.random.Generator, d: Path) -> Prepared:
    eps = float(rng.uniform(0.005, 0.02))
    model = _model(d, "h6.json", 6.0)
    argv = ["analyze", "--gen", "torus_mesh:16,16", "--auto-bipartite", "--model", model,
            "--simulate", "--eps", repr(eps), "-o", "bundle.json"]
    check = _analyze_check("bundle.json", _lattice("torus_mesh:16,16"),
                           oracles.checkerboard(16, 16), 6.0, simulated=True)
    warmup = ["analyze", "--gen", "torus_mesh:4,4", "--auto-bipartite", "--model", model,
              "--simulate", "--eps", repr(eps), "-o", "warmup.json"]
    return Prepared([Op([Call(argv, check)])], warmup)


def sweep_threshold(graph_w: np.ndarray, classes) -> float:
    """h* = 2/|lam_min| of the quotient, from the benchmark's own graph."""
    lam = oracles.quotient_spectrum(*oracles.quotient(graph_w, classes))[-1]
    return 2.0 / abs(float(lam))


def _sweep_small(rng: np.random.Generator, d: Path) -> Prepared:
    parts, thresholds = [], []
    graph_ws = [_lattice(graph) for graph, _ in SWEEP_GRAPHS]
    for k, (graph, classes) in enumerate(SWEEP_GRAPHS):
        parts.append(_write(d, f"part{k}.json", {"classes": classes}))
        thresholds.append(sweep_threshold(graph_ws[k](), classes))
    pairs = [(k, band) for k in range(len(SWEEP_GRAPHS)) for band in SWEEP_BANDS]
    ops = []
    for p in range(SWEEP_STRATA * SWEEP_CYCLES):
        if p % SWEEP_STRATA == 0:
            strata = [rng.permutation(SWEEP_STRATA) for _ in pairs]
        cases = []
        for (k, (band, lo, hi)), order in zip(pairs, strata):
            frac = (order[p % SWEEP_STRATA] + rng.uniform()) / SWEEP_STRATA
            cases.append((k, band, (lo + (hi - lo) * frac) * thresholds[k]))
        calls = []
        for pos, idx in enumerate(rng.permutation(len(cases))):
            k, band, h = cases[idx]
            graph, classes = SWEEP_GRAPHS[k]
            model = _model(d, f"p{p:02d}-g{k}-{band}.json", h)
            bundle = f"bundle-{pos:02d}.json"
            argv = ["analyze", "--gen", graph, "--partition", parts[k], "--model", model,
                    "-o", bundle]
            calls.append(Call(argv, _analyze_check(bundle, graph_ws[k], classes, h,
                                                   simulated=False)))
        ops.append(Op(calls))
    warmup = ["analyze", "--gen", "torus_mesh:4,4", "--partition", parts[2],
              "--model", _model(d, "h6.json", 6.0), "-o", "warmup.json"]
    return Prepared(ops, warmup)


def _torus_start(rng: np.random.Generator, side: int) -> list[float]:
    """u* + 0.01 checkerboard + 0.005 U(-1, 1): biased toward the pattern so
    the step count barely depends on the noise."""
    board = np.array([1.0 if (v // side + v % side) % 2 == 0 else -1.0
                      for v in range(side * side)])
    return (1.0 + 0.01 * board + 0.005 * rng.uniform(-1.0, 1.0, side * side)).tolist()


def _simulate_torus32(rng: np.random.Generator, d: Path) -> Prepared:
    model = _model(d, "h6.json", 6.0)
    x0 = _write(d, "x0.json", _torus_start(rng, 32))
    argv = ["simulate", "--gen", "torus_mesh:32,32", "--model", model, "--x0", x0,
            "-o", "sim.json"]
    graph_w = _lattice("torus_mesh:32,32")

    def check(rc: int) -> None:
        oracles.require(rc == 0, f"exit code {rc}")
        with open("sim.json") as fh:
            oracles.check_steady(json.load(fh), graph_w(), 6.0)

    warmup = ["simulate", "--gen", "torus_mesh:4,4", "--model", model,
              "--x0", _write(d, "x0-small.json", _torus_start(rng, 4)), "-o", "warmup.json"]
    # The op streams the dense 1024x1024 matrix four times per step, so it
    # is bound by memory, not by the interpreter: over 22 ops its wall time
    # varied by +-6% while the probe swung from 0.75 to 1.38 of its median,
    # and rescaling made it vary by +-30%.
    return Prepared([Op([Call(argv, check)])], warmup, rescale=False)


def _refine_hex30(rng: np.random.Generator, d: Path) -> Prepared:
    v = int(rng.integers(900))
    seed = _write(d, "seed.json", {"classes": [[v], [u for u in range(900) if u != v]]})
    argv = ["partition", "--gen", "hex_torus:30,30", "--mode", "refine", "--seed", seed,
            "-o", "refined.json"]
    graph_w = _lattice("hex_torus:30,30")
    expected = functools.cache(lambda: oracles.hex_point_orbits(30, 30, v))

    def check(rc: int) -> None:
        oracles.require(rc == 0, f"exit code {rc}")
        with open("refined.json") as fh:
            oracles.check_refinement(json.load(fh), graph_w(), expected())

    small = _write(d, "seed-small.json", {"classes": [[0], list(range(1, 36))]})
    warmup = ["partition", "--gen", "hex_torus:6,6", "--mode", "refine", "--seed", small,
              "-o", "warmup.json"]
    return Prepared([Op([Call(argv, check)])], warmup)


WORKLOADS = {
    "analyze-torus16": _analyze_torus16,
    "sweep-small": _sweep_small,
    "simulate-torus32": _simulate_torus32,
    "refine-hex30": _refine_hex30,
}


def prepare(name: str, seed: int, directory: Path) -> Prepared:
    """Write the inputs of workload `name` for `seed` into `directory`."""
    rng = np.random.default_rng([seed & 0xFFFFFFFF, zlib.crc32(name.encode())])
    prepared = WORKLOADS[name](rng, directory)
    _write(directory, "ops.json", {"ops": [[call.argv for call in op.calls] for op in prepared.ops],
                                   "warmup": prepared.warmup})
    return prepared
