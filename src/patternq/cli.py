"""Command-line front end: generate graphs, partition, certify, simulate, render.

Subcommands: gen, partition, quotient, exist, stability, simulate, render,
analyze, report.  Every command but `report` names a built-in lattice by
one spec, --gen KIND:sizes (torus_mesh:4,4, path:5, buckyball), and all but
`gen` take --graph FILE instead; `render` and `report --svg` share the
layout function _draw.  Every command that works on a partition reads
one staged run, _Run, which computes each stage once, under the tag that a
failure prints as `error [stage]`; `partition` and `analyze` pick the
partition with one chooser.  The table _SECTIONS drives both building and
checking the sealed bundle: `analyze` seals each section's data from the
run with the hashes of exactly the sections its row names, and `report`
checks every hash and link against it and prints a human summary.  Exit
codes: 0 certified and stable, 2 not certified, 3 certified but not
stable, 1 on any error.

Set PATTERNQ_LOG={error|info|debug} to control logging.
"""
from __future__ import annotations

import argparse
import datetime
import functools
import logging
import os
import sys

import numpy as np

from . import __version__
from .cells import HillMap, fixed_point
from .errors import BadBundle, BadOptions, NotEquitable, PatternQError
from .existence import (
    CERTIFIED,
    ExistenceCertificate,
    PatternSolution,
    ReducedSolution,
    certify,
    lift,
    solve_reduced,
)
from .graphs import GENERATOR_KINDS, WeightedGraph, generate, is_connected, scaled_adjacency
from .partitions import (
    QuotientModel,
    bipartition_partition,
    coarsest_equitable_refinement,
    orbits_from_generators,
    quotient,
)
from .serialize import (
    Canonical,
    _field,
    _is_real,
    _list_of,
    _load_json,
    dumps_canonical,
    graph_to_dict,
    load_graph,
    load_model,
    load_partition,
    load_perms,
    model_from_dict,
    model_to_dict,
    partition_to_dict,
    sha256_of,
)
from .simulate import (
    SimOptions,
    classify,
    cluster_values,
    grouping_tol,
    integrate,
    perturbed_start,
    verify_certificate,
)
from .stability import STABLE, stability_report

LOG = logging.getLogger("patternq")

_GLYPHS = "#.o*+x=%@&"
_SVG_COLORS = ("#404040", "#e8e8e8", "#909090", "#c8c8c8", "#686868", "#f4f4f4")


class _StageFailure(Exception):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause


def _run_stage(stage: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    # OverflowError: an id too large for a float (>= 2**1024) in an input file;
    # MemoryError: an array too large to allocate, such as an n x n operator
    except (PatternQError, OSError, KeyError, ValueError, OverflowError, MemoryError) as exc:
        raise _StageFailure(stage, exc) from exc


def _write_text(path: str | None, text: str) -> None:
    """Write text and a newline to path, or to stdout when path is None."""
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _write_json(obj, path: str | None) -> None:
    _run_stage("write", _write_text, path, dumps_canonical(obj))


# ---------------------------------------------------------------------------
# shared loading helpers
# ---------------------------------------------------------------------------

def _split_spec(spec: str) -> tuple[str, list[str]]:
    """A lattice spec KIND:sizes as its kind and its comma-separated sizes."""
    kind, _, sizes = spec.partition(":")
    return kind, [size for size in sizes.split(",") if size]


def _load_graph_arg(args) -> tuple[WeightedGraph, str]:
    """The graph of --gen SPEC or --graph FILE, and that spec or path."""
    if getattr(args, "gen", None):
        kind, sizes = _split_spec(args.gen)
        return _run_stage("gen", generate, kind, *sizes), args.gen
    return _run_stage("load", load_graph, args.graph), args.graph


def _choose_partition(g: WeightedGraph, how: str, path: str | None) -> tuple:
    """The partition that `how` names, and its bundle mode: the one in the
    file at path ("check"), the orbits of the permutations in it ("orbits"),
    the two sides of g's 2-coloring ("bipartite"), or the coarsest equitable
    refinement of the one in it, or of one class ("refine")."""
    if how == "orbits":
        perms = _run_stage("load", load_perms, path)
        return _run_stage("partition", orbits_from_generators, g, perms), f"orbits:{path}"
    if how == "bipartite":
        return _run_stage("partition", bipartition_partition, g), "auto-bipartite"
    seed = _run_stage("load", load_partition, path, g.n) if path else None
    if how == "check":
        return seed, f"file:{path}"
    return _run_stage("partition", coarsest_equitable_refinement, g, seed), "auto-refine"


# ---------------------------------------------------------------------------
# the staged run
# ---------------------------------------------------------------------------

class _Run:
    """The paper's chain on one graph, partition and model.  Every stage runs
    under its stage tag and calls its library function through this module's
    binding; the cached ones run once, on first read.  `data` builds each
    bundle section's data from the stages it reads."""

    def __init__(self, g: WeightedGraph, pi, model: HillMap | None = None):
        self.g, self.pi, self.model = g, pi, model

    @functools.cached_property
    def qm(self) -> QuotientModel:
        return _run_stage("quotient", quotient, self.g, self.pi)

    @functools.cached_property
    def certificate(self) -> ExistenceCertificate:
        """The certificate alone, for a run that solves nothing."""
        return _run_stage("certify", certify, self.qm, self.model)

    @functools.cached_property
    def solution(self) -> ReducedSolution:
        return _run_stage("solve", solve_reduced, self.qm, self.model)

    @functools.cached_property
    def pattern(self) -> PatternSolution:
        return _run_stage("lift", lift, self.qm, self.solution.class_values, self.model)

    def stability(self, z, methods=("block", "smallgain")) -> dict:
        rep = _run_stage("stability", stability_report, self.qm, self.model, z, methods)
        out = {"m_matrix_ok": rep.m_matrix_ok}
        if rep.full_verdict is not None:
            out.update(full_spectral_abscissa=rep.full_spectral_abscissa,
                       full_verdict=rep.full_verdict)
        if rep.block is not None:
            out["block"] = {"representative_spectrum": rep.block.representative_spectrum,
                            "transverse_spectrum": rep.block.transverse_spectrum,
                            "consistency": rep.block.consistency}
        if (sg := rep.small_gain) is not None:
            # schema 1 keeps the quotient's radius, rho_full bit for bit, as its own key
            out["small_gain"] = {"rho_full": sg.rho_full, "rho_reduced": sg.rho_full,
                                 "verdict": sg.verdict, "class_gains": sg.class_gains}
        return out

    def simulation(self, eps: float) -> dict:
        chk = _run_stage("simulate", verify_certificate, self.qm, self.model, self.pattern,
                         self.solution.certificate, eps)
        emp = chk.empirical
        return {"match": chk.match, "exploratory": chk.exploratory, "converged": chk.converged,
                "max_deviation": chk.max_deviation, "groups": emp.groups if emp else None,
                "group_values": emp.values if emp else None, "note": chk.note}

    @staticmethod
    def quotient_data(qm: QuotientModel) -> dict:
        return {"matrix": qm.matrix, "class_degrees": qm.class_degrees,
                "class_sizes": np.bincount(qm.partition.labels), "eigenvalues": qm.eigenvalues,
                "reduced_edges": qm.reduced_edges,
                "reduced_bipartite": qm.reduced_coloring is not None,
                "reduced_coloring": (None if qm.reduced_coloring is None else
                                     [np.flatnonzero(qm.reduced_coloring == side)
                                      for side in (0, 1)])}

    def data(self, name: str, eps: float | None = None):
        """The data of bundle section `name`, None for a simulation without eps."""
        if name == "graph":
            return graph_to_dict(self.g)
        if name == "model":
            return model_to_dict(self.model)
        if name == "partition":
            return partition_to_dict(self.pi)
        if name == "quotient":
            return _run_stage("quotient", self.quotient_data, self.qm)
        if name == "certificate":
            cert = self.solution.certificate
            return {"verdict": cert.verdict, "lambda_r": cert.min_eigenvalue,
                    "lambda_r_multiplicity": cert.min_multiplicity,
                    "u_star": cert.fixed_point_value,
                    "slope_at_u_star": cert.slope_at_fixed_point,
                    "condition_value": cert.condition_value,
                    "reduced_bipartite": cert.reduced_bipartite}
        if name == "pattern":
            red, pattern = self.solution, self.pattern
            return {"z": pattern.class_values, "u": pattern.cell_inputs, "x": pattern.cell_states,
                    "residuals": {"reduced": pattern.residual_reduced,
                                  "full": pattern.residual_full},
                    "homogeneous": pattern.homogeneous, "warning": red.warning,
                    "alternate_z": red.alternate_class_values}
        if name == "stability":
            return self.stability(self.pattern.class_values)
        return None if eps is None else self.simulation(eps)


def _load_run(args) -> _Run:
    """The run on the graph, the --partition and, if the command takes it, --model."""
    g, _ = _load_graph_arg(args)
    pi, _ = _choose_partition(g, "check", args.partition)
    model = _run_stage("load", load_model, args.model) if "model" in args else None
    return _Run(g, pi, model)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    g, _ = _load_graph_arg(args)
    _write_json(graph_to_dict(g), args.out)
    return 0


def _cmd_partition(args) -> int:
    g, _ = _load_graph_arg(args)
    flag = "perms" if args.mode == "orbits" else "seed"
    if args.mode != "refine" and not getattr(args, flag):
        raise _StageFailure("partition", BadOptions(f"--mode {args.mode} needs --{flag}"))
    run = _Run(g, _choose_partition(g, args.mode, getattr(args, flag))[0])
    out = run.data("partition")
    try:
        out.update(run.data("quotient"), equitable=True, witness=None)
    except _StageFailure as exc:
        if not isinstance(exc.cause, NotEquitable):
            raise
        out.update(equitable=False, witness=list(exc.cause.witness))
    _write_json(out, args.out)
    return 0


def _cmd_quotient(args) -> int:
    run = _load_run(args)
    _write_json({**run.data("quotient"), **run.data("partition")}, args.out)
    return 0


def _cmd_exist(args) -> int:
    run = _load_run(args)
    _write_json({**run.data("certificate"), **run.data("pattern")}, args.out)
    return 0


def _load_pattern_values(path: str) -> np.ndarray:
    data = _load_json(path, dict, "a JSON object with a 'z' field")
    z = np.asarray(_field(data, "z", _list_of(_is_real), "a list of numbers"), dtype=float)
    if not np.isfinite(z).all():
        raise BadOptions("field 'z' must be a list of finite numbers")
    return z


def _cmd_stability(args) -> int:
    run = _load_run(args)
    z = _run_stage("load", _load_pattern_values, args.pattern)
    methods = ("block", "smallgain") if args.method == "all" else (args.method,)
    _write_json(run.stability(z, methods), args.out)
    return 0


def _load_x0(path: str) -> np.ndarray:
    x0 = _load_json(path, list, "a JSON list with the initial state")
    if not _list_of(_is_real)(x0):
        raise BadOptions(f"{path} must hold a JSON list of numbers")
    return np.asarray(x0, dtype=float)


def _perturb_direction(spec: str, n: int) -> np.ndarray:
    """The direction of --perturb cell:<k> or random:<seed> on n cells."""
    kind, _, arg = spec.partition(":")
    if kind not in ("cell", "random") or not arg.removeprefix("-").isdecimal():
        raise BadOptions(f"bad --perturb spec {spec!r}: want cell:<k> or random:<seed>")
    k = int(arg)
    if kind == "random":
        if k < 0:
            raise BadOptions(f"bad --perturb spec {spec!r}: the seed must be >= 0")
        return np.random.default_rng(k).standard_normal(n)
    if not 0 <= k < n:
        raise BadOptions(f"--perturb cell:{k} outside [0,{n})")
    direction = np.zeros(n)
    direction[k] = 1.0
    return direction


def _write_trace(path: str, trace, n: int) -> None:
    with open(path, "w") as fh:
        fh.write("t," + ",".join(f"x_{i}" for i in range(n)) + "\n")
        for t, row in zip(trace.times, trace.states):
            fh.write(format(t, ".17g") + ","
                     + ",".join(format(v, ".17g") for v in row) + "\n")


def _cmd_simulate(args) -> int:
    g, _ = _load_graph_arg(args)
    model = _run_stage("load", load_model, args.model)
    opts = SimOptions(step=args.step, max_time=args.max_time, conv_tol=args.conv_tol)
    if args.perturb == "vr" and not args.x0:
        if not args.partition:
            raise _StageFailure("simulate", BadOptions("--perturb vr needs --partition"))
        run = _Run(g, _choose_partition(g, "check", args.partition)[0], model)
        cert, sa = run.certificate, run.qm.operator
        x0 = _run_stage("simulate", perturbed_start, model, cert.fixed_point_value,
                        run.pi.expand(cert.min_eigenvector), args.eps)
    else:
        sa = _run_stage("simulate", scaled_adjacency, g)
        if args.x0:
            x0 = _run_stage("load", _load_x0, args.x0)
        else:
            direction = _run_stage("simulate", _perturb_direction, args.perturb, g.n)
            x0 = _run_stage("simulate", perturbed_start, model, fixed_point(model).value,
                            direction, args.eps)
    trace = _run_stage("simulate", integrate, sa, model, x0, opts)
    if args.trace:
        _run_stage("write", _write_trace, args.trace, trace, g.n)
    summary = {
        "converged": trace.converged,
        "final_time": trace.final_time,
        "final_derivative_norm": trace.final_derivative_norm,
        "final_state": trace.final_state,
    }
    if trace.converged:
        emp = classify(trace, cluster_tol=grouping_tol(model))
        summary.update(groups=emp.groups, values=emp.values)
    _write_json(summary, args.out)
    return 0


def _read_final_row(trace_path: str) -> np.ndarray:
    with open(trace_path) as fh:
        rows = [line.strip() for line in fh if line.strip()]
    if len(rows) < 2:
        raise BadOptions(f"trace {trace_path} has no samples")
    return np.array([float(x) for x in rows[-1].split(",")[1:]])


def _draw(source: str, group_of: list[int]) -> tuple[str, str]:
    """The ASCII text and the SVG of the cell groups in the layout of a
    graph source: a grid for torus_mesh and hex_torus specs (odd hex rows
    shifted half a cell), the pentagon and hexagon rings for the buckyball,
    and one row for any other spec or graph file."""
    kind, sizes = _split_spec(source)
    glyphs = [_GLYPHS[g % len(_GLYPHS)] for g in group_of]
    colors = [_SVG_COLORS[g % len(_SVG_COLORS)] for g in group_of]
    if kind == "buckyball":
        return ("pentagons: " + " ".join(glyphs[:12]) + "\nhexagons:  " + " ".join(glyphs[12:]),
                _svg_rings(colors))
    rows, cols = ((int(size) for size in sizes) if kind in ("torus_mesh", "hex_torus")
                  else (1, len(group_of)))
    if rows * cols != len(group_of):
        raise BadOptions(f"{source} lays out {rows * cols} cells, got {len(group_of)}")
    offset = kind == "hex_torus"
    lines = (" ".join(glyphs[i * cols:(i + 1) * cols]) for i in range(rows))
    text = "\n".join((" " if offset and i % 2 else "") + line for i, line in enumerate(lines))
    return text, _svg_grid(colors, rows, cols, offset)


def _svg_grid(colors: list[str], rows: int, cols: int, offset: bool) -> str:
    cell = 24
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{cols * cell + cell}" height="{rows * cell + cell}">']
    for i in range(rows):
        for j in range(cols):
            x = j * cell + (cell // 2 if offset and i % 2 else 0) + 2
            y = i * cell + 2
            parts.append(f'<rect x="{x}" y="{y}" width="{cell - 2}" '
                         f'height="{cell - 2}" fill="{colors[i * cols + j]}" stroke="#000"/>')
    parts.append("</svg>")
    return "\n".join(parts)


def _svg_rings(colors: list[str]) -> str:
    import math

    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="300" height="300">']
    for idx, color in enumerate(colors):
        if idx < 12:
            radius, count, pos = 60.0, 12, idx
        else:
            radius, count, pos = 115.0, len(colors) - 12, idx - 12
        ang = 2 * math.pi * pos / count
        cx = 150 + radius * math.cos(ang)
        cy = 150 + radius * math.sin(ang)
        parts.append(f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="9" '
                     f'fill="{color}" stroke="#000"/>')
    parts.append("</svg>")
    return "\n".join(parts)


def _cmd_render(args) -> int:
    if not (np.isfinite(args.cluster_tol) and args.cluster_tol >= 0):
        raise _StageFailure("render", BadOptions(
            f"cluster-tol must be finite and nonnegative, got {args.cluster_tol}"))
    g, source = _load_graph_arg(args)
    final = _run_stage("load", _read_final_row, args.trace)
    if len(final) != g.n:
        raise _StageFailure("render", BadOptions(
            f"trace has {len(final)} cells, the graph {g.n}"))
    text, svg = _draw(source, cluster_values(final, args.cluster_tol).tolist())
    print(text)
    if args.svg:
        _run_stage("write", _write_text, args.svg, svg)
    return 0


# The sealed bundle, one row per section in build order: the sections whose
# hashes its `upstream` links hold.  analyze builds and seals from this table
# and report verifies against it.  Only the simulation section may be null.
_SECTIONS = {
    "graph": (),
    "model": (),
    "partition": ("graph",),
    "quotient": ("graph", "partition"),
    "certificate": ("quotient", "model"),
    "pattern": ("certificate",),
    "stability": ("pattern",),
    "simulation": ("pattern", "stability"),
}
_OPTIONAL_SECTIONS = frozenset({"simulation"})


def _seal(section: dict) -> dict:
    """section with each value emitted once as Canonical text, and the
    sha256 of that text; the bundle is later written from the same text."""
    section = {k: Canonical(dumps_canonical(v)) for k, v in section.items()}
    section["sha256"] = sha256_of(section)
    return section


def _cmd_analyze(args) -> int:
    g, source = _load_graph_arg(args)
    if not is_connected(g):
        raise _StageFailure("graph", BadOptions("contact graph must be connected"))
    model = _run_stage("load", load_model, args.model)
    eps = args.eps if args.simulate else None
    if eps is not None:  # refuse a bad --eps before the pipeline runs
        _run_stage("simulate", perturbed_start, model, 0.0, (1.0,), eps)
    # no partition option: the coarsest equitable partition, from one class
    how, path = (("check", args.partition) if args.partition else
                 ("bipartite", None) if args.auto_bipartite else
                 ("orbits", args.orbit_perms) if args.orbit_perms else ("refine", None))
    pi, mode = _choose_partition(g, how, path)
    run = _Run(g, pi, model)
    data = {name: run.data(name, eps) for name in _SECTIONS}
    heads = {"graph": {"source": source}, "partition": {"mode": mode}}
    sealed = {}
    for name, links in _SECTIONS.items():
        if data[name] is not None:
            body = {**heads.get(name, {}), "data": data[name]}
            if links:
                body["upstream"] = {up: sealed[up]["sha256"] for up in links}
            sealed[name] = _seal(body)
    _write_json({"schema": 1, "tool": {"name": "patternq", "version": __version__},
                 "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
                 **dict.fromkeys(_SECTIONS), **sealed}, args.out)
    if data["certificate"]["verdict"] != CERTIFIED:
        return 2
    return 0 if data["stability"]["full_verdict"] == STABLE else 3


def _verify_bundle(bundle: dict) -> None:
    """Check each section's hash, and that its links are exactly its row's."""
    for name, links in _SECTIONS.items():
        sec = bundle.get(name)
        if not sec and name in _OPTIONAL_SECTIONS:
            continue
        if not isinstance(sec, dict) or "sha256" not in sec:
            raise BadBundle(f"section {name!r} missing or unsealed")
        body = {k: v for k, v in sec.items() if k != "sha256"}
        if sha256_of(body) != sec["sha256"]:
            raise BadBundle(f"section {name!r} content does not match its hash")
        if (sec.get("upstream") or {}) != {up: bundle[up]["sha256"] for up in links}:
            raise BadBundle(f"section {name!r} upstream must link exactly "
                            f"{list(links)} at their current hashes")


def _fmt_matrix(rows) -> str:
    return "\n".join("  [" + ", ".join(format(float(v), "g") for v in row) + "]"
                     for row in rows)


def _report_text(bundle: dict) -> str:
    """The human summary of a verified bundle."""
    gdata = bundle["graph"]["data"]
    quot = bundle["quotient"]["data"]
    cert = bundle["certificate"]["data"]
    pattern = bundle["pattern"]["data"]
    stab = bundle["stability"]["data"]
    lines = [
        f"patternq report (schema {bundle['schema']}, tool {bundle['tool']['version']})",
        f"graph: {gdata['n']} cells, {len(gdata['edges'])} contacts "
        f"({bundle['graph'].get('source', 'file')})",
        f"partition: {len(bundle['partition']['data']['classes'])} classes, "
        f"sizes {quot['class_sizes']} ({bundle['partition']['mode']})",
        "quotient matrix:",
        _fmt_matrix(quot["matrix"]),
        f"quotient eigenvalues: {[round(float(v), 12) for v in quot['eigenvalues']]}",
        f"minimum eigenvalue: {cert['lambda_r']:g} "
        f"(multiplicity {cert['lambda_r_multiplicity']})",
        f"homogeneous fixed point u* = {cert['u_star']:.12g}, "
        f"slope there = {cert['slope_at_u_star']:.12g}",
    ]
    if cert["lambda_r"] < 0:
        lines.append(
            f"existence threshold: |slope at u*| > {1.0 / abs(cert['lambda_r']):g}")
    else:
        lines.append("existence threshold: none (minimum eigenvalue >= 0)")
    lines.append(f"condition value: {cert['condition_value']:.12g} "
                 f"-> verdict {cert['verdict']}")
    zs = ", ".join(format(float(v), ".12g") for v in pattern["z"])
    lines.append(f"pattern class values: [{zs}]"
                 + ("  (homogeneous)" if pattern["homogeneous"] else ""))
    res = pattern["residuals"]
    lines.append(f"residuals: reduced {res['reduced']:.3e}, full {res['full']:.3e}")
    lines.append(f"stability: abscissa {stab['full_spectral_abscissa']:.6g} "
                 f"-> {stab['full_verdict']}")
    if "small_gain" in stab:
        sg = stab["small_gain"]
        lines.append(f"small gain: rho(P Gamma) = {sg['rho_full']:.12g}, "
                     f"rho on quotient = {sg['rho_reduced']:.12g} -> {sg['verdict']}")
    if bundle.get("simulation"):
        sim = bundle["simulation"]["data"]
        lines.append(f"simulation: match={sim['match']} "
                     f"max deviation {sim['max_deviation']:.3e} ({sim['note']})")
    return "\n".join(lines)


def _report_svg(bundle: dict) -> str:
    """The pattern's cells grouped by the model's gap, drawn in the layout
    of the bundle's graph source."""
    u = np.asarray(bundle["pattern"]["data"]["u"], dtype=float)
    model = model_from_dict(bundle["model"]["data"])
    return _draw(bundle["graph"].get("source", ""),
                 cluster_values(u, grouping_tol(model)).tolist())[1]


def _read_bundle(read, bundle: dict) -> str:
    """read(bundle), with the TypeError of a mistyped field as a BadBundle."""
    try:
        return read(bundle)
    except TypeError as exc:
        raise BadBundle(f"a field has the wrong type: {exc}") from exc


def _cmd_report(args) -> int:
    bundle = _run_stage("load", _load_json, args.bundle, dict, "a JSON object")
    _run_stage("report", _verify_bundle, bundle)
    print(_run_stage("report", _read_bundle, _report_text, bundle))
    if args.svg:
        _run_stage("write", _write_text, args.svg,
                   _run_stage("report", _read_bundle, _report_svg, bundle))
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

_GEN_HELP = f"built-in lattice KIND:sizes, e.g. torus_mesh:4,4; KIND in {GENERATOR_KINDS}"


def _add_graph_source(p: argparse.ArgumentParser) -> None:
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--graph", help="graph JSON file")
    grp.add_argument("--gen", help=_GEN_HELP)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="patternq",
        description="Certify steady-state patterns of lateral-inhibition cell networks.")
    parser.add_argument("--version", action="version", version=f"patternq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a built-in lattice as graph JSON")
    p.add_argument("--gen", required=True, help=_GEN_HELP)
    p.add_argument("--out", "-o")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("partition", help="check, refine or compute orbit partitions")
    _add_graph_source(p)
    p.add_argument("--mode", required=True, choices=["check", "refine", "orbits"])
    p.add_argument("--seed", help="partition JSON (the partition itself for check)")
    p.add_argument("--perms", help="permutations JSON for orbits mode")
    p.add_argument("--out", "-o")
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("quotient", help="quotient matrix and spectrum of a partition")
    _add_graph_source(p)
    p.add_argument("--partition", required=True)
    p.add_argument("--out", "-o")
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser("exist", help="existence certificate and solved pattern")
    _add_graph_source(p)
    p.add_argument("--partition", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", "-o")
    p.set_defaults(func=_cmd_exist)

    p = sub.add_parser("stability", help="stability report for a solved pattern")
    _add_graph_source(p)
    p.add_argument("--partition", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--pattern", required=True, help="JSON with a 'z' field")
    p.add_argument("--method", default="all",
                   choices=["block", "smallgain", "all"],
                   help="block: the representative and transverse blocks, "
                        "whose largest eigenvalue is the full abscissa; "
                        "smallgain: the small-gain test alone, no full_* keys; "
                        "all (default): block and smallgain")
    p.add_argument("--out", "-o")
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("simulate", help="integrate the network dynamics")
    _add_graph_source(p)
    p.add_argument("--model", required=True)
    p.add_argument("--x0", help="JSON list with the initial state")
    p.add_argument("--perturb", default="random:0",
                   help="vr | cell:<k> | random:<seed>")
    p.add_argument("--partition", help="needed for --perturb vr")
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--step", type=float,
                   help="largest step of the adaptive integrator "
                        "(default: the stability cap of the model)")
    p.add_argument("--max-time", type=float, dest="max_time")
    p.add_argument("--conv-tol", type=float, default=1e-9, dest="conv_tol")
    p.add_argument("--trace", help="write CSV trace here")
    p.add_argument("--out", "-o")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("render", help="ASCII/SVG view of a trace's final pattern, laid "
                                      "out as its lattice (one row for a graph file)")
    _add_graph_source(p)
    p.add_argument("--trace", required=True)
    p.add_argument("--cluster-tol", type=float, default=1e-4, dest="cluster_tol",
                   help="absolute gap between value groups; a trace CSV carries "
                        "no model, so simulate's 1e-4 A gap cannot apply")
    p.add_argument("--svg")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("analyze", help="full pipeline into a sealed bundle")
    _add_graph_source(p)
    part = p.add_mutually_exclusive_group()
    part.add_argument("--partition")
    part.add_argument("--auto-bipartite", action="store_true", dest="auto_bipartite")
    part.add_argument("--orbit-perms", dest="orbit_perms")
    p.add_argument("--model", required=True)
    p.add_argument("--simulate", action="store_true")
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--out", "-o")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("report", help="verify a bundle and print a summary")
    p.add_argument("--bundle", required=True)
    p.add_argument("--svg")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("PATTERNQ_LOG", "error").upper()
    logging.basicConfig(level=getattr(logging, level, logging.ERROR),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _StageFailure as exc:
        LOG.debug("stage failure", exc_info=True)
        print(f"error [{exc.stage}]: {exc.cause}", file=sys.stderr)
        return 1
    except PatternQError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
