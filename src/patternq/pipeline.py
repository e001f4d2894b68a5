"""The paper's chain as one staged run, and the sealed bundle it fills.

A Run computes each stage of one graph, partition and model once, under
the tag its failure carries as a StageFailure (`error [stage]` on the
command line).  SECTIONS lists the bundle's sections in build order, with
their `upstream` links and the builders of their data from a run;
seal_bundle builds and seals from it, and verify_bundle checks against it.
"""
from __future__ import annotations

import datetime
import functools
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .cells import HillMap
from .errors import BadBundle, BadOptions, PatternQError
from .existence import PatternSolution, solve_reduced
from .graphs import WeightedGraph, is_connected
from .partitions import QuotientModel, quotient
from .serialize import (Canonical, dumps_canonical, graph_to_dict, model_to_dict,
                        partition_to_dict, sha256_of)
from .simulate import verify_certificate
from .stability import stability_report

__all__ = ["StageFailure", "run_stage", "Run", "SECTIONS", "seal_bundle", "verify_bundle"]


class StageFailure(Exception):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause


def run_stage(stage: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), with an input or library error as a StageFailure."""
    try:
        return fn(*args, **kwargs)
    # OverflowError: an id too large for a float (>= 2**1024) in an input file;
    # MemoryError: an array too large to allocate, such as an n x n operator
    except (PatternQError, OSError, KeyError, ValueError, OverflowError, MemoryError) as exc:
        raise StageFailure(stage, exc) from exc


class Run:
    """The paper's chain on one graph, partition and model.  A disconnected
    contact graph is refused under the tag `graph` before any stage.  Every
    stage runs under its stage tag and calls its library function through
    this module's binding; the cached ones run once, on first read."""

    def __init__(self, g: WeightedGraph, pi, model: HillMap | None = None):
        if not is_connected(g):
            raise StageFailure("graph", BadOptions("contact graph must be connected"))
        self.g, self.pi, self.model = g, pi, model

    @functools.cached_property
    def qm(self) -> QuotientModel:
        return run_stage("quotient", quotient, self.g, self.pi)

    @functools.cached_property
    def pattern(self) -> PatternSolution:
        """The lifted root of the reduced solve, with its certificate."""
        return run_stage("solve", solve_reduced, self.qm, self.model)

    @functools.cached_property
    def pattern_stability(self) -> dict:
        """The stability of the pattern, by both routes."""
        return self.stability(self.pattern.class_values)

    def stability(self, z, methods=("block", "smallgain")) -> dict:
        rep = run_stage("stability", stability_report, self.qm, self.model, z, methods)
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
        chk = run_stage("simulate", verify_certificate, self.qm, self.model, self.pattern, eps)
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
        return SECTIONS[name].build(self, eps)


def _certificate_data(run: Run, eps) -> dict:
    cert = run.pattern.certificate
    return {"verdict": cert.verdict, "lambda_r": cert.min_eigenvalue,
            "lambda_r_multiplicity": cert.min_multiplicity,
            "u_star": cert.fixed_point_value, "slope_at_u_star": cert.slope_at_fixed_point,
            "condition_value": cert.condition_value,
            "reduced_bipartite": cert.reduced_bipartite}


def _pattern_data(run: Run, eps) -> dict:
    pattern = run.pattern
    return {"z": pattern.class_values, "u": pattern.cell_inputs, "x": pattern.cell_states,
            "residuals": {"reduced": pattern.residual_reduced, "full": pattern.residual_full},
            "homogeneous": pattern.homogeneous, "warning": pattern.warning,
            "alternate_z": pattern.alternate_class_values}


class Section(NamedTuple):
    upstream: tuple[str, ...]
    build: Callable[[Run, float | None], object]
    optional: bool = False


# One row per section in build order: the sections whose hashes its
# `upstream` links hold, and its data.  Only an optional section may be null.
SECTIONS = {
    "graph": Section((), lambda run, eps: graph_to_dict(run.g)),
    "model": Section((), lambda run, eps: model_to_dict(run.model)),
    "partition": Section(("graph",), lambda run, eps: partition_to_dict(run.pi)),
    "quotient": Section(("graph", "partition"),
                        lambda run, eps: run_stage("quotient", Run.quotient_data, run.qm)),
    "certificate": Section(("quotient", "model"), _certificate_data),
    "pattern": Section(("certificate",), _pattern_data),
    "stability": Section(("pattern",), lambda run, eps: run.pattern_stability),
    "simulation": Section(("pattern", "stability"),
                          lambda run, eps: None if eps is None else run.simulation(eps),
                          optional=True),
}


def _seal(section: dict) -> dict:
    """section with its data emitted once as Canonical text, and the sha256
    of the section; the bundle is later written from the same text."""
    section["data"] = Canonical(dumps_canonical(section["data"]))
    section["sha256"] = sha256_of(section)
    return section


def seal_bundle(run: Run, eps: float | None, heads: dict) -> dict:
    """The bundle of run: each section's data, built before any is sealed,
    and the fields heads gives for it, sealed with the hashes of exactly the
    sections its row links; the simulation at eps, null when eps is None."""
    data = {name: section.build(run, eps) for name, section in SECTIONS.items()}
    sealed = {}
    for name, section in SECTIONS.items():
        if data[name] is not None:
            body = {**heads.get(name, {}), "data": data[name]}
            if section.upstream:
                body["upstream"] = {up: sealed[up]["sha256"] for up in section.upstream}
            sealed[name] = _seal(body)
    return {"schema": 1, "tool": {"name": "patternq", "version": __version__},
            "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            **dict.fromkeys(SECTIONS), **sealed}


def verify_bundle(bundle: dict) -> None:
    """Check the schema, each section's hash, and that its links are exactly
    its row's; a missing field is named as report names it."""
    if "schema" not in bundle:
        raise BadBundle("'schema'")
    if type(bundle["schema"]) is not int or bundle["schema"] != 1:
        raise BadBundle(f"unsupported bundle schema {bundle['schema']!r}; patternq reads schema 1")
    for name, section in SECTIONS.items():
        sec = bundle.get(name)
        if not sec and section.optional:
            continue
        if not isinstance(sec, dict) or "sha256" not in sec:
            raise BadBundle(f"section {name!r} missing or unsealed")
        body = {k: v for k, v in sec.items() if k != "sha256"}
        if sha256_of(body) != sec["sha256"]:
            raise BadBundle(f"section {name!r} content does not match its hash")
        if (sec.get("upstream") or {}) != {up: bundle[up]["sha256"] for up in section.upstream}:
            raise BadBundle(f"section {name!r} upstream must link exactly "
                            f"{list(section.upstream)} at their current hashes")
