"""Command-line front end: generate graphs, partition, certify, simulate, render.

Subcommands: gen, partition, quotient, exist, stability, simulate, render,
analyze, report.  `analyze` chains the whole pipeline and writes a sealed
bundle whose stages record content hashes of their upstream inputs; `report`
verifies the chain and prints a human summary.  Exit codes: 0 certified and
stable, 2 not certified, 3 certified but not stable, 1 on any error.

Set PATTERNQ_LOG={error|info|debug} to control logging.
"""
from __future__ import annotations

import argparse
import datetime
import functools
import json
import logging
import os
import sys

import numpy as np

from . import __version__
from .cells import HillMap, fixed_point, load_model, model_from_dict, model_to_dict
from .errors import BadBundle, BadOptions, NotEquitable, PatternQError
from .existence import (
    CERTIFIED,
    ExistenceCertificate,
    PatternSolution,
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
    load_partition,
    load_perms,
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
from .spectral import eigen_reversible
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
    except (PatternQError, OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
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

def _load_graph_arg(args) -> tuple[WeightedGraph, str]:
    if getattr(args, "gen", None):
        kind, _, sizes = args.gen.partition(":")
        return _run_stage("gen", generate, kind, *filter(None, sizes.split(","))), args.gen
    return _run_stage("load", load_graph, args.graph), args.graph


def _quotient_report(qm: QuotientModel) -> dict:
    spec = eigen_reversible(qm.matrix, qm.class_degrees, vectors=False)
    return {
        "matrix": qm.matrix,
        "class_degrees": qm.class_degrees,
        "class_sizes": [len(cls) for cls in qm.partition.classes],
        "eigenvalues": spec.eigenvalues,
        "reduced_edges": [list(e) for e in qm.reduced_edges],
        "reduced_bipartite": qm.reduced_coloring is not None,
        "reduced_coloring": (
            [list(side) for side in qm.reduced_coloring]
            if qm.reduced_coloring is not None else None),
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    g = _run_stage("gen", generate, args.kind, **{
        k: v for k, v in (("n", args.n), ("rows", args.rows), ("cols", args.cols))
        if v is not None})
    _write_json(graph_to_dict(g), args.out)
    return 0


def _cmd_partition(args) -> int:
    g, _ = _load_graph_arg(args)
    if args.mode == "orbits":
        if not args.perms:
            raise _StageFailure("partition", BadOptions("--mode orbits needs --perms"))
        perms = _run_stage("load", load_perms, args.perms)
        pi = _run_stage("partition", orbits_from_generators, g, perms)
    else:
        seed = (_run_stage("load", load_partition, args.seed, g.n)
                if args.seed else None)
        if args.mode == "check":
            if seed is None:
                raise _StageFailure("partition", BadOptions("--mode check needs --seed"))
            pi = seed
        else:
            pi = _run_stage("partition", coarsest_equitable_refinement, g, seed)
    out = dict(partition_to_dict(pi))
    try:
        qm = _run_stage("quotient", quotient, g, pi)
    except _StageFailure as exc:
        if not isinstance(exc.cause, NotEquitable):
            raise
        out.update(equitable=False, witness=list(exc.cause.witness))
    else:
        out.update(equitable=True, witness=None)
        out.update(_run_stage("quotient", _quotient_report, qm))
    _write_json(out, args.out)
    return 0


def _cmd_quotient(args) -> int:
    g, _ = _load_graph_arg(args)
    pi = _run_stage("load", load_partition, args.partition, g.n)
    qm = _run_stage("quotient", quotient, g, pi)
    out = _run_stage("quotient", _quotient_report, qm)
    out["classes"] = [list(cls) for cls in pi.classes]
    _write_json(out, args.out)
    return 0


def _exist_payload(qm: QuotientModel, model: HillMap
                   ) -> tuple[dict, ExistenceCertificate, PatternSolution]:
    red = _run_stage("solve", solve_reduced, qm, model)
    cert = red.certificate
    pattern = _run_stage("lift", lift, qm, red.class_values, model)
    payload = {
        "verdict": cert.verdict,
        "lambda_r": cert.min_eigenvalue,
        "lambda_r_multiplicity": cert.min_multiplicity,
        "u_star": cert.fixed_point_value,
        "slope_at_u_star": cert.slope_at_fixed_point,
        "condition_value": cert.condition_value,
        "reduced_bipartite": cert.reduced_bipartite,
        "z": pattern.class_values,
        "u": pattern.cell_inputs,
        "x": pattern.cell_states,
        "residuals": {"reduced": pattern.residual_reduced,
                      "full": pattern.residual_full},
        "homogeneous": pattern.homogeneous,
        "warning": red.warning,
        "alternate_z": red.alternate_class_values,
    }
    return payload, cert, pattern


def _cmd_exist(args) -> int:
    g, _ = _load_graph_arg(args)
    pi = _run_stage("load", load_partition, args.partition, g.n)
    model = _run_stage("load", load_model, args.model)
    qm = _run_stage("quotient", quotient, g, pi)
    payload, _, _ = _exist_payload(qm, model)
    _write_json(payload, args.out)
    return 0


def _stability_payload(qm, model, z, methods) -> dict:
    rep = _run_stage("stability", stability_report, qm, model, z, methods)
    out = {
        "full_spectral_abscissa": rep.full_spectral_abscissa,
        "full_verdict": rep.full_verdict,
        "m_matrix_ok": rep.m_matrix_ok,
    }
    if rep.block is not None:
        out["block"] = {
            "representative_spectrum": rep.block.representative_spectrum,
            "transverse_spectrum": rep.block.transverse_spectrum,
            "consistency": rep.block.consistency,
        }
    if rep.small_gain is not None:
        out["small_gain"] = {
            "rho_full": rep.small_gain.rho_full,
            "rho_reduced": rep.small_gain.rho_reduced,
            "verdict": rep.small_gain.verdict,
            "class_gains": rep.small_gain.gains.class_gains,
        }
    return out


def _load_pattern_values(path: str) -> np.ndarray:
    data = _load_json(path, dict, "a JSON object with a 'z' field")
    return np.asarray(_field(data, "z", _list_of(_is_real), "a list of numbers"), dtype=float)


def _cmd_stability(args) -> int:
    g, _ = _load_graph_arg(args)
    pi = _run_stage("load", load_partition, args.partition, g.n)
    model = _run_stage("load", load_model, args.model)
    z = _run_stage("load", _load_pattern_values, args.pattern)
    qm = _run_stage("quotient", quotient, g, pi)
    methods = (("full", "block", "smallgain") if args.method == "all"
               else (args.method,))
    _write_json(_stability_payload(qm, model, z, methods), args.out)
    return 0


def _load_x0(path: str) -> np.ndarray:
    x0 = _load_json(path, list, "a JSON list with the initial state")
    if not _list_of(_is_real)(x0):
        raise BadOptions(f"{path} must hold a JSON list of numbers")
    return np.asarray(x0, dtype=float)


def _perturb_direction(spec: str, n: int) -> np.ndarray:
    """The direction of --perturb cell:<k> or random:<seed> on n cells."""
    kind, _, arg = spec.partition(":")
    if kind == "cell":
        k = int(arg)
        if not 0 <= k < n:
            raise BadOptions(f"--perturb cell:{k} outside [0,{n})")
        direction = np.zeros(n)
        direction[k] = 1.0
        return direction
    if kind == "random":
        return np.random.default_rng(int(arg)).standard_normal(n)
    raise BadOptions(f"bad --perturb spec {spec!r}")


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
        pi = _run_stage("load", load_partition, args.partition, g.n)
        qm = _run_stage("quotient", quotient, g, pi)
        cert = _run_stage("certify", certify, qm, model)
        sa = qm.operator
        x0 = perturbed_start(model, cert.fixed_point_value,
                             pi.expand(cert.min_eigenvector), args.eps)
    else:
        sa = _run_stage("simulate", scaled_adjacency, g)
        if args.x0:
            x0 = _run_stage("load", _load_x0, args.x0)
        else:
            direction = _run_stage("simulate", _perturb_direction, args.perturb, g.n)
            x0 = perturbed_start(model, fixed_point(model).value, direction, args.eps)
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
        summary["groups"] = [list(grp) for grp in emp.groups]
        summary["values"] = list(emp.values)
    _write_json(summary, args.out)
    return 0


def _read_final_row(trace_path: str) -> np.ndarray:
    with open(trace_path) as fh:
        rows = [line.strip() for line in fh if line.strip()]
    if len(rows) < 2:
        raise BadOptions(f"trace {trace_path} has no samples")
    return np.array([float(x) for x in rows[-1].split(",")[1:]])


def _ascii_grid(group_of: list[int], rows: int, cols: int, hex_offset: bool) -> str:
    lines = []
    for i in range(rows):
        pad = " " * (i % 2) if hex_offset else ""
        lines.append(pad + " ".join(
            _GLYPHS[group_of[i * cols + j] % len(_GLYPHS)] for j in range(cols)))
    return "\n".join(lines)


def _svg_grid(group_of: list[int], rows: int, cols: int, hex_offset: bool) -> str:
    cell = 24
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{cols * cell + cell}" height="{rows * cell + cell}">']
    for i in range(rows):
        for j in range(cols):
            x = j * cell + (cell // 2 if hex_offset and i % 2 else 0) + 2
            y = i * cell + 2
            color = _SVG_COLORS[group_of[i * cols + j] % len(_SVG_COLORS)]
            parts.append(f'<rect x="{x}" y="{y}" width="{cell - 2}" '
                         f'height="{cell - 2}" fill="{color}" stroke="#000"/>')
    parts.append("</svg>")
    return "\n".join(parts)


def _svg_rings(group_of: list[int]) -> str:
    import math

    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="300" height="300">']
    for idx in range(len(group_of)):
        if idx < 12:
            radius, count, pos = 60.0, 12, idx
        else:
            radius, count, pos = 115.0, len(group_of) - 12, idx - 12
        ang = 2 * math.pi * pos / count
        cx = 150 + radius * math.cos(ang)
        cy = 150 + radius * math.sin(ang)
        color = _SVG_COLORS[group_of[idx] % len(_SVG_COLORS)]
        parts.append(f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="9" '
                     f'fill="{color}" stroke="#000"/>')
    parts.append("</svg>")
    return "\n".join(parts)


def _cmd_render(args) -> int:
    final = _run_stage("load", _read_final_row, args.trace)
    group_of = cluster_values(final, args.cluster_tol).tolist()
    if args.layout in ("torus", "hex"):
        if not args.rows or not args.cols:
            raise _StageFailure("render", BadOptions("torus/hex layouts need --rows and --cols"))
        if args.rows * args.cols != len(final):
            raise _StageFailure("render", BadOptions(
                f"trace has {len(final)} cells, grid wants {args.rows * args.cols}"))
        text = _ascii_grid(group_of, args.rows, args.cols, args.layout == "hex")
        svg = _svg_grid(group_of, args.rows, args.cols, args.layout == "hex")
    elif args.layout == "bucky":
        if len(final) != 32:
            raise _StageFailure("render", BadOptions("bucky layout needs 32 cells"))
        text = ("pentagons: " + " ".join(_GLYPHS[g % len(_GLYPHS)] for g in group_of[:12])
                + "\nhexagons:  " + " ".join(_GLYPHS[g % len(_GLYPHS)] for g in group_of[12:]))
        svg = _svg_rings(group_of)
    else:
        raise _StageFailure("render", BadOptions(f"unknown layout {args.layout!r}"))
    print(text)
    if args.svg:
        _run_stage("write", _write_text, args.svg, svg)
    return 0


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

    if args.partition:
        pi = _run_stage("load", load_partition, args.partition, g.n)
        mode = f"file:{args.partition}"
    elif args.auto_bipartite:
        pi = _run_stage("partition", bipartition_partition, g)
        mode = "auto-bipartite"
    elif args.orbit_perms:
        perms = _run_stage("load", load_perms, args.orbit_perms)
        pi = _run_stage("partition", orbits_from_generators, g, perms)
        mode = f"orbits:{args.orbit_perms}"
    else:
        pi = _run_stage("partition", coarsest_equitable_refinement, g)
        mode = "auto-refine"

    graph_sec = _seal({"source": source, "data": graph_to_dict(g)})
    model_sec = _seal({"data": model_to_dict(model)})
    part_sec = _seal({"mode": mode, "data": partition_to_dict(pi),
                      "upstream": {"graph": graph_sec["sha256"]}})

    qm = _run_stage("quotient", quotient, g, pi)
    quot = _run_stage("quotient", _quotient_report, qm)
    quot_sec = _seal({"data": quot, "upstream": {
        "graph": graph_sec["sha256"], "partition": part_sec["sha256"]}})

    payload, cert, pattern = _exist_payload(qm, model)
    cert_keys = ("verdict", "lambda_r", "lambda_r_multiplicity", "u_star",
                 "slope_at_u_star", "condition_value", "reduced_bipartite")
    cert_sec = _seal({"data": {k: payload[k] for k in cert_keys},
                      "upstream": {"quotient": quot_sec["sha256"],
                                   "model": model_sec["sha256"]}})
    pattern_keys = ("z", "u", "x", "residuals", "homogeneous", "warning", "alternate_z")
    pattern_sec = _seal({"data": {k: payload[k] for k in pattern_keys},
                         "upstream": {"certificate": cert_sec["sha256"]}})

    stab = _stability_payload(qm, model, pattern.class_values,
                              ("full", "block", "smallgain"))
    stab_sec = _seal({"data": stab, "upstream": {"pattern": pattern_sec["sha256"]}})

    sim_sec = None
    if args.simulate:
        chk = _run_stage("simulate", verify_certificate, qm, model, pattern,
                         cert, args.eps)
        sim_sec = _seal({"data": {
            "match": chk.match,
            "exploratory": chk.exploratory,
            "converged": chk.converged,
            "max_deviation": chk.max_deviation,
            "groups": [list(grp) for grp in chk.empirical.groups] if chk.empirical else None,
            "group_values": list(chk.empirical.values) if chk.empirical else None,
            "note": chk.note,
        }, "upstream": {"pattern": pattern_sec["sha256"],
                        "stability": stab_sec["sha256"]}})

    bundle = {
        "schema": 1,
        "tool": {"name": "patternq", "version": __version__},
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "graph": graph_sec,
        "model": model_sec,
        "partition": part_sec,
        "quotient": quot_sec,
        "certificate": cert_sec,
        "pattern": pattern_sec,
        "stability": stab_sec,
        "simulation": sim_sec,
    }
    _write_json(bundle, args.out)

    if payload["verdict"] != CERTIFIED:
        return 2
    return 0 if stab["full_verdict"] == STABLE else 3


def _verify_bundle(bundle: dict) -> None:
    sections = ["graph", "model", "partition", "quotient", "certificate",
                "pattern", "stability"]
    if bundle.get("simulation"):
        sections.append("simulation")
    hashes = {}
    for name in sections:
        sec = bundle.get(name)
        if not isinstance(sec, dict) or "sha256" not in sec:
            raise BadBundle(f"section {name!r} missing or unsealed")
        body = {k: v for k, v in sec.items() if k != "sha256"}
        if sha256_of(body) != sec["sha256"]:
            raise BadBundle(f"section {name!r} content does not match its hash")
        for up_name, up_hash in (sec.get("upstream") or {}).items():
            if hashes.get(up_name) != up_hash:
                raise BadBundle(
                    f"section {name!r} references stale upstream {up_name!r}")
        hashes[name] = sec["sha256"]


def _fmt_matrix(rows) -> str:
    return "\n".join("  [" + ", ".join(format(float(v), "g") for v in row) + "]"
                     for row in rows)


def _cmd_report(args) -> int:
    bundle = _run_stage("load", _load_json, args.bundle, dict, "a JSON object")
    _run_stage("report", _verify_bundle, bundle)

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
    print("\n".join(lines))

    if args.svg:
        source = bundle["graph"].get("source", "")
        u = np.asarray(pattern["u"], dtype=float)
        model = _run_stage("report", model_from_dict, bundle["model"]["data"])
        group_of = cluster_values(u, grouping_tol(model)).tolist()
        if source.startswith("torus_mesh:") or source.startswith("hex_torus:"):
            rows, cols = (int(x) for x in source.split(":")[1].split(","))
            svg = _svg_grid(group_of, rows, cols, source.startswith("hex"))
        elif source == "buckyball":
            svg = _svg_rings(group_of)
        else:
            svg = _svg_grid(group_of, 1, len(u), False)
        _run_stage("write", _write_text, args.svg, svg)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_graph_source(p: argparse.ArgumentParser, required: bool = True) -> None:
    grp = p.add_mutually_exclusive_group(required=required)
    grp.add_argument("--graph", help="graph JSON file")
    grp.add_argument("--gen", help="built-in lattice spec, e.g. torus_mesh:4,4")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="patternq",
        description="Certify steady-state patterns of lateral-inhibition cell networks.")
    parser.add_argument("--version", action="version", version=f"patternq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a built-in lattice as graph JSON")
    p.add_argument("--kind", required=True, choices=GENERATOR_KINDS)
    p.add_argument("--n", type=int)
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
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
                   choices=["full", "block", "smallgain", "all"])
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

    p = sub.add_parser("render", help="ASCII/SVG view of a trace's final pattern")
    p.add_argument("--trace", required=True)
    p.add_argument("--layout", required=True, choices=["torus", "hex", "bucky"])
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
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
    part.add_argument("--auto-refine", action="store_true", dest="auto_refine")
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
