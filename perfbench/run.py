"""patternq benchmark: one workload, one process, one closed-loop client.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run imports patternq from `src/`, writes the workload's seeded inputs
under `.perfbench/`, and calls `patternq.cli.main(argv)` back to back for S
seconds of op time (at least one op).  Every op's exit code and output are
checked by numpy oracles outside the timed region.  Set-up (import, input
generation, one warm-up op on a small input) is repeated and its median
reported as setup_s.  Times in the result line are rescaled to the speed
probe's reference speed (see probe.py), op times only on workloads whose ops
follow the probe; the report lines give wall times too.

With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 it carries the per-layer metrics, from a
traced replay of the ops an untraced loop of S/2 seconds ran.  Lines before
it are a human-readable report.  Exits 2 without a result when patternq or
BENCHMARK.json is missing or set-up fails.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

T_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
SETUPS = 5
# routes whose inclusive time the traced run reports, to compare with the
# per-stage figures quoted in ROADMAP.md
ROUTES = ("stability.full_jacobian_stability", "stability.block_stability",
          "existence.solve_reduced", "simulate.verify_certificate", "simulate.integrate",
          "partitions.coarsest_equitable_refinement")


class SetupFailed(Exception):
    pass


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _limit_blas_threads() -> None:
    # one BLAS thread: on a 2-core machine two threads made the dense
    # 1024x1024 matvec of simulate-torus32 both faster and far less steady
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["PATTERNQ_LOG"] = "error"


def _tree(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def set_up(workloads, cli, name: str, seed: int, work: Path):
    """Generate inputs and run the warm-up op SETUPS times.  Returns the
    median wall and reference-speed seconds of one round, and the last
    round's prepared workload (cwd is left in its directory)."""
    from probe import measure

    walls, refs, trees = [], [], []
    for k in range(SETUPS):
        directory = work / f"setup-{k}"
        directory.mkdir(parents=True)
        os.chdir(directory)
        prepared, gen_wall, gen_ref = measure(lambda: workloads.prepare(name, seed, directory))
        trees.append(_tree(directory))
        rc, warm_wall, warm_ref = measure(lambda: cli.main(prepared.warmup))
        if rc != 0:
            raise SetupFailed(f"warm-up {prepared.warmup} exited {rc}")
        walls.append(gen_wall + warm_wall)
        refs.append(gen_ref + warm_ref)
    if any(tree != trees[0] for tree in trees):
        raise SetupFailed("the same seed generated different input files")
    return statistics.median(walls), statistics.median(refs), prepared


def _call_all(cli, calls) -> list:
    results = []
    for call in calls:
        try:
            results.append(cli.main(call.argv))
        except (Exception, SystemExit):
            results.append(traceback.format_exc(limit=-1).strip().splitlines()[-1])
    return results


def run_ops(cli, prepared, budget_s=None, count=None, tracer=None):
    """Closed loop: start the next op while op time stays under budget_s
    (or until `count` ops ran).  Returns per-op wall seconds, the same at
    reference speed when the workload rescales, and the failure count."""
    from oracles import Mismatch
    from probe import measure

    walls, refs, failed = [], [], 0
    while (len(walls) < count) if count is not None else (not walls or sum(walls) < budget_s):
        op = prepared.ops[len(walls) % len(prepared.ops)]
        if tracer is not None:
            tracer.op, tracer.active = len(walls), True
        results, wall, ref = measure(lambda: _call_all(cli, op.calls), prepared.rescale)
        if tracer is not None:
            tracer.active = False
        walls.append(wall)
        refs.append(ref)
        problems = []
        for call, rc in zip(op.calls, results):
            try:
                if not isinstance(rc, int):
                    raise Mismatch(f"raised {rc}")
                call.check(rc)
            except Exception as exc:  # any oracle failure marks the op failed
                problems.append(f"{' '.join(call.argv)}: {type(exc).__name__}: {exc}")
        if problems:
            failed += 1
            print(f"FAILED op {len(walls) - 1}: " + "; ".join(problems), file=sys.stderr)
    return walls, refs, failed


def _tail(times):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(times)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(times)[n - 11]


def end_to_end(setup, walls, refs, failed) -> dict:
    """End-to-end metrics at reference speed; prints them with wall times."""
    n, passed = len(refs), len(refs) - failed
    m = {
        "setup_s": setup[1],
        "op_p50_s": statistics.median(refs),
        "ops_per_s": passed / sum(refs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print("times at reference speed (ops: only if the workload rescales), wall time in brackets")
    print(f"setup_s      {m['setup_s']:.6f} s [{setup[0]:.6f} s] (median of {SETUPS} set-ups)")
    print(f"op_p50_s     {m['op_p50_s']:.6f} s [{statistics.median(walls):.6f} s] (n={n})")
    tail, wall_tail = _tail(refs), _tail(walls)
    if tail:
        print(f"op_tail_s    {tail[1]:.6f} s [{wall_tail[1]:.6f} s] at p{tail[0]:.1f} (n={n})")
    else:
        print(f"op_tail_s    not reported: {n} ops, needs 11")
    print(f"ops_per_s    {m['ops_per_s']:.6f} 1/s [{passed / sum(walls):.6f} 1/s] "
          f"({passed} passed)")
    print(f"peak_rss_mb  {m['peak_rss_mb']:.3f} MB")
    print(f"fail_ratio   {failed / n:.6f} ({failed} of {n} ops)")
    return m


def per_layer(spec: dict, tracer, untraced, traced) -> dict:
    """Per-layer metrics per traced op; prints layer shares and route times."""
    n = len(traced)
    totals = tracer.totals()
    ratio = statistics.median(traced) / statistics.median(untraced)
    op_s = tracer.inclusive_seconds("cli.main")
    print(f"traced ops {n}: trace.overhead_ratio {ratio:.4f}")
    for layer, seconds in tracer.layer_self_seconds().items():
        print(f"share {layer:<11} {seconds / op_s:8.4f} of op time ({seconds / n:.6f} s per op)")
    for name in ROUTES:
        print(f"inclusive {name} {tracer.inclusive_seconds(name) / n:.6f} s per op")
    metrics = {}
    for entry in spec["per_layer"]:
        name = entry["name"]
        value = ratio if name == "trace.overhead_ratio" else totals.get(name, 0.0) / n
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "patternq" / "__init__.py").is_file():
        print("perfbench: src/patternq not found next to perfbench/", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    _limit_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401  (timed as part of set-up)
    from patternq import cli

    import probe
    import tracer as tracing
    import workloads

    import_wall = time.perf_counter() - T_START
    import_ref = import_wall * probe.REFERENCE_S / probe.probe_s(5)
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        try:
            round_wall, round_ref, prepared = set_up(workloads, cli, args.workload, args.seed,
                                                     work)
        except Exception:  # any set-up failure ends the run without a result
            traceback.print_exc()
            print("perfbench: set-up failed", file=sys.stderr)
            return 2
        setup = (import_wall + round_wall, import_ref + round_ref)
        budget = args.seconds / 2 if args.trace else args.seconds
        walls, refs, failed = run_ops(cli, prepared, budget_s=budget)
        m = end_to_end(setup, walls, refs, failed)
        attempted = len(refs)
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                _, traced, traced_failed = run_ops(cli, prepared, count=len(refs), tracer=tracer)
            finally:
                tracer.uninstall()
            attempted += len(traced)
            failed += traced_failed
            metrics = per_layer(spec, tracer, refs, traced)
            tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            metrics = {e["name"]: {"value": m[e["name"]], "unit": e["unit"]}
                       for e in spec["end_to_end"]}
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
