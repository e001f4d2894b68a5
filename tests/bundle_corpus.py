"""The CLI byte-audit corpus: run it into a directory, diff two runs.

    python tests/bundle_corpus.py run DIR [--src SRC]
    python tests/bundle_corpus.py diff A B

The corpus is 30 `analyze` cases (five graph/partition set-ups, each at
h = 3, 6 and 40, with and without --simulate), `report` and `report --svg`
on each bundle, and the `partition`, `exist` and `stability` commands on
the same set-ups.  Each set-up also runs `gen`, then `simulate --perturb
vr` at h = 6 on that graph file with a --trace CSV, then `render` of the
trace, and the 4x4 torus runs `simulate --perturb cell:0` and `random:0`.
The set-ups are the 4x4 and 16x16 torus_mesh checkerboards
(--auto-bipartite), the buckyball's pentagons | hexagons, hex_torus:6,6
diag3 and triangle_bridge {2,5} | rest.  Every set-up has two classes, so
two more cases bring a quotient of many: the refinement of {17} | rest on
hex_torus:30,30, 91 classes, and `analyze` at h = 6 on that refinement.

`run` imports patternq from SRC (default: the src/ next to this file), so
one checkout can run the corpus of another; DIR must not hold an earlier
run.  It sets OPENBLAS_NUM_THREADS=1 before numpy loads, runs every
command in process from inside DIR with relative paths, writes each
output file with the bundle's `created` stripped, and records every exit
code, stdout and stderr in DIR/results.json.

`diff` compares each case's outputs, out/<name>.json, .svg and .csv; it
lists every differing number of a JSON file by section and field, with both
values and their distance, then every other differing item, and a summary
of the largest distance per field.  It exits 1 only when an exit code or a
verdict differs (VERDICT_KEYS), and 0 otherwise.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import sys
from pathlib import Path

SETUPS = {
    "torus4": ("torus_mesh:4,4", "checkerboard"),
    "torus16": ("torus_mesh:16,16", "checkerboard"),
    "bucky": ("buckyball", [list(range(12)), list(range(12, 32))]),
    "hex6": ("hex_torus:6,6", "diag3"),
    "bridge": ("triangle_bridge", [[2, 5], [0, 1, 3, 4, 6, 7]]),
}
EXPONENTS = (3, 6, 40)
# the many-class set-up: {17} | rest refines to 91 classes on this lattice
MANY = ("hex_torus:30,30", [[17], [v for v in range(900) if v != 17]])
VERDICT_KEYS = frozenset({"verdict", "full_verdict", "match", "equitable"})


def _classes(gen: str, motif) -> list[list[int]]:
    """The partition's classes: given, or a motif tiled over the torus."""
    if not isinstance(motif, str):
        return motif
    rows, cols = (int(x) for x in gen.split(":")[1].split(","))
    label = {"checkerboard": lambda i, j: (i + j) % 2,
             "diag3": lambda i, j: int((i - j) % 3 != 0)}[motif]
    classes: list[list[int]] = [[], []]
    for v in range(rows * cols):
        classes[label(*divmod(v, cols))].append(v)
    return classes


def cases() -> list[tuple[str, list[str]]]:
    """(name, argv) of every command, in run order; the outputs are
    out/<name>.json (none for report and render) and any out/<name>.svg or
    .csv; the report, simulate and render cases read an earlier case's
    output."""
    out = []
    for name, (gen, motif) in SETUPS.items():
        part = f"inputs/{name}.json"
        out.append((f"partition-check-{name}",
                    ["partition", "--gen", gen, "--mode", "check", "--seed", part]))
        out.append((f"partition-refine-{name}",
                    ["partition", "--gen", gen, "--mode", "refine", "--seed", part]))
        out.append((f"gen-{name}", ["gen", "--gen", gen]))
        trace = f"out/simulate-vr-{name}.csv"
        out.append((f"simulate-vr-{name}",
                    ["simulate", "--graph", f"out/gen-{name}.json", "--perturb", "vr",
                     "--partition", part, "--model", "inputs/h6.json", "--trace", trace]))
        out.append((f"render-{name}",
                    ["render", "--trace", trace, "--gen", gen, "--svg", f"out/render-{name}.svg"]))
        how = ["--auto-bipartite"] if motif == "checkerboard" else ["--partition", part]
        for h in EXPONENTS:
            model = f"inputs/h{h}.json"
            exist = f"exist-{name}-h{h}"
            out.append((exist, ["exist", "--gen", gen, "--partition", part, "--model", model]))
            out.append((f"stability-{name}-h{h}",
                        ["stability", "--gen", gen, "--partition", part, "--model", model,
                         "--pattern", f"out/{exist}.json"]))
            for sim in ((), ("--simulate",)):
                bundle = f"analyze-{name}-h{h}" + ("-sim" if sim else "")
                out.append((bundle, ["analyze", "--gen", gen, *how, "--model", model, *sim]))
                out.append((f"report-{bundle}",
                            ["report", "--bundle", f"out/{bundle}.json",
                             "--svg", f"out/report-{bundle}.svg"]))
    for spec in ("cell:0", "random:0"):
        out.append((f"simulate-{spec.replace(':', '')}-torus4",
                    ["simulate", "--gen", SETUPS["torus4"][0], "--perturb", spec,
                     "--model", "inputs/h6.json"]))
    seed, part = "inputs/hex30.json", "out/partition-refine-hex30.json"
    out.append(("partition-refine-hex30",
                ["partition", "--gen", MANY[0], "--mode", "refine", "--seed", seed]))
    out.append(("analyze-hex30-h6",
                ["analyze", "--gen", MANY[0], "--partition", part, "--model", "inputs/h6.json"]))
    return [(name, argv if argv[0] in ("report", "render") else
             [*argv, "-o", f"out/{name}.json"]) for name, argv in out]


def _strip_created(path: Path) -> None:
    text = path.read_text()
    path.write_text(re.sub(r'"created":"[^"]*",', "", text, count=1))


def run(directory) -> dict:
    """Run the corpus with the patternq already importable; returns and
    writes DIR/results.json: {name: {"argv", "exit", "stdout", "stderr"}}."""
    from patternq.cli import main

    root = Path(directory)
    (root / "out").mkdir(parents=True)  # refuses a directory that holds a run
    (root / "inputs").mkdir()
    for name, (gen, motif) in SETUPS.items():
        (root / "inputs" / f"{name}.json").write_text(
            json.dumps({"classes": _classes(gen, motif)}) + "\n")
    (root / "inputs" / "hex30.json").write_text(json.dumps({"classes": MANY[1]}) + "\n")
    for h in EXPONENTS:
        (root / "inputs" / f"h{h}.json").write_text(
            json.dumps({"A": 2.0, "K": 1.0, "h": float(h), "tau": 1.0}) + "\n")
    results = {}
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for name, argv in cases():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            if argv[0] == "analyze" and code != 1:
                _strip_created(Path("out") / f"{name}.json")
            results[name] = {"argv": argv, "exit": code, "stdout": stdout.getvalue(),
                             "stderr": stderr.getvalue()}
    finally:
        os.chdir(cwd)
    (root / "results.json").write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    return results


def _walk(a, b, path: str, numbers: list, others: list, verdicts: list) -> None:
    """Append each leaf where a and b differ, by the path that reaches it."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}" if path else key
            if key not in a or key not in b:
                others.append(f"{sub}: only in {'B' if key not in a else 'A'}")
            elif key in VERDICT_KEYS and a[key] != b[key]:
                verdicts.append(f"{sub}: {a[key]!r} -> {b[key]!r}")
            else:
                _walk(a[key], b[key], sub, numbers, others, verdicts)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for k, (x, y) in enumerate(zip(a, b)):
            _walk(x, y, f"{path}[{k}]", numbers, others, verdicts)
    elif (type(a) in (int, float) and type(b) in (int, float)
          and not (a == b and type(a) is type(b))):
        numbers.append((path, a, b))
    elif a != b or type(a) is not type(b):
        others.append(f"{path}: {json.dumps(a)[:80]} -> {json.dumps(b)[:80]}")


def diff(a_dir, b_dir, write=print) -> int:
    """Print the differences of run B against run A; 1 when an exit code or
    a verdict differs, else 0."""
    a_dir, b_dir = Path(a_dir), Path(b_dir)
    res_a = json.loads((a_dir / "results.json").read_text())
    res_b = json.loads((b_dir / "results.json").read_text())
    failed = False
    widest: dict[str, float] = {}
    same = 0
    for name in sorted(set(res_a) | set(res_b)):
        if name not in res_a or name not in res_b:
            write(f"{name}: only in {'B' if name not in res_a else 'A'}")
            failed = True
            continue
        ra, rb = res_a[name], res_b[name]
        if ra["exit"] != rb["exit"]:
            write(f"{name}: EXIT {ra['exit']} -> {rb['exit']}")
            failed = True
        for stream in ("stdout", "stderr"):
            if ra[stream] != rb[stream]:
                write(f"{name}: {stream} differs")
        for fname in (f"{name}.json", f"{name}.svg", f"{name}.csv"):
            fa, fb = a_dir / "out" / fname, b_dir / "out" / fname
            if not (fa.exists() and fb.exists()):
                if fa.exists() != fb.exists():
                    write(f"{fname}: only in {'A' if fa.exists() else 'B'}")
                continue
            ta, tb = fa.read_text(), fb.read_text()
            if ta == tb:
                same += 1
                continue
            if not fname.endswith(".json"):
                write(f"{fname}: {fname.rsplit('.', 1)[1]} differs")
                continue
            numbers, others, verdicts = [], [], []
            _walk(json.loads(ta), json.loads(tb), "", numbers, others, verdicts)
            for path, x, y in numbers:
                dist = abs(x - y) if math.isfinite(x) and math.isfinite(y) else math.inf
                write(f"{fname}: {path}: {x!r} -> {y!r} ({dist:.3g})")
                field = re.sub(r"\[\d+\]", "[]", path)
                widest[field] = max(widest.get(field, 0.0), dist)
            for line in others:
                write(f"{fname}: {line}")
            for line in verdicts:
                write(f"{fname}: VERDICT {line}")
            failed = failed or bool(verdicts)
    write(f"# {same} output files identical")
    for field, dist in sorted(widest.items()):
        write(f"# largest distance {dist:.3g} in {field}")
    write("# FAILED: an exit code or a verdict differs" if failed
          else "# exit codes and verdicts identical")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run the corpus into DIR")
    p.add_argument("dir")
    p.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                   help="directory that holds the patternq package to run")
    p = sub.add_parser("diff", help="list what differs from run A to run B")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "diff":
        return diff(args.a, args.b)
    # the thread count must be fixed before numpy loads its BLAS
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(Path(args.src).resolve()))
    run(args.dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
