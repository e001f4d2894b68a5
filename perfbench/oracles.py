"""Independent correctness oracles for the benchmark, built on numpy alone.

Nothing here calls into patternq: graphs are rebuilt from their lattice
definitions, spectra come from LAPACK `eigvalsh` of explicit symmetric
similarities, and the refinement is compared with an orbit partition
computed from the hexagonal point group.  Every check raises `Mismatch`
with a one-line reason; the benchmark counts that op as failed.

The Hill cell is fixed at A = 2, K = 1, tau = 1, so the homogeneous fixed
point is u* = 1 and T'(u*) = -h/2 for every exponent h.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

CERTIFIED = "CERTIFIED"
RESIDUAL_TOL = 1e-10
ABSCISSA_TOL = 1e-9
EIG_TOL = 1e-9
EQ_TOL = 1e-12
STABILITY_MARGIN = 1e-9
# the simulator stops once |x'|_inf < conv_tol = 1e-9; recomputing that
# norm independently may differ in the last bits, never by a factor of two
STEADY_TOL = 2e-9


class Mismatch(Exception):
    """An op's output disagrees with an oracle."""


def require(ok: bool, reason: str) -> None:
    if not ok:
        raise Mismatch(reason)


# ---------------------------------------------------------------------------
# graphs, rebuilt from their definitions (row-major numbering v = i*cols + j)
# ---------------------------------------------------------------------------

def _grid(rows: int, cols: int, offsets) -> np.ndarray:
    n = rows * cols
    w = np.zeros((n, n))
    for i, j in itertools.product(range(rows), range(cols)):
        for di, dj in offsets:
            u, v = i * cols + j, ((i + di) % rows) * cols + (j + dj) % cols
            w[u, v] += 1.0
            w[v, u] += 1.0
    return w


def _buckyball() -> np.ndarray:
    """Face adjacency of the truncated icosahedron: icosahedron vertices are
    the 12 pentagons (cells 0..11), its 20 triangles the hexagons."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    pts = []
    for a, b in itertools.product((1.0, -1.0), repeat=2):
        pts += [(0.0, a, b * phi), (a, b * phi, 0.0), (a * phi, 0.0, b)]
    pts = np.array(pts)
    near = np.isclose(((pts[:, None] - pts[None]) ** 2).sum(-1), 4.0)
    faces = [f for f in itertools.combinations(range(12), 3)
             if near[f[0], f[1]] and near[f[0], f[2]] and near[f[1], f[2]]]
    w = np.zeros((32, 32))
    for k, f in enumerate(faces):
        for v in f:
            w[v, 12 + k] = w[12 + k, v] = 1.0
        for m, g in enumerate(faces):
            if len(set(f) & set(g)) == 2:
                w[12 + k, 12 + m] = 1.0
    return w


def lattice(spec: str) -> np.ndarray:
    """Weight matrix of a `--gen` lattice spec."""
    kind, _, rest = spec.partition(":")
    if kind == "torus_mesh":
        rows, cols = (int(x) for x in rest.split(","))
        return _grid(rows, cols, ((0, 1), (1, 0)))
    if kind == "hex_torus":
        rows, cols = (int(x) for x in rest.split(","))
        return _grid(rows, cols, ((1, 0), (0, 1), (1, -1)))
    if kind == "triangle_bridge":
        w = np.zeros((8, 8))
        for i, j in ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7), (6, 7)):
            w[i, j] = w[j, i] = 1.0
        return w
    if kind == "buckyball":
        return _buckyball()
    raise ValueError(f"no oracle graph for {spec!r}")


def weights_from_edges(n: int, edges) -> np.ndarray:
    w = np.zeros((n, n))
    for i, j, wt in edges:
        w[int(i), int(j)] = w[int(j), int(i)] = float(wt)
    return w


def checkerboard(rows: int, cols: int) -> list[list[int]]:
    cells = range(rows * cols)
    return [[v for v in cells if (v // cols + v % cols) % 2 == parity] for parity in (0, 1)]


def as_classes(classes) -> frozenset:
    return frozenset(frozenset(int(v) for v in cls) for cls in classes)


# ---------------------------------------------------------------------------
# quotient, existence and stability
# ---------------------------------------------------------------------------

def hill(h: float, u: np.ndarray) -> np.ndarray:
    return 2.0 / (1.0 + u ** h)


def hill_slope(h: float, u: np.ndarray) -> np.ndarray:
    return -2.0 * h * u ** (h - 1.0) / (1.0 + u ** h) ** 2


def quotient(w: np.ndarray, classes) -> tuple[np.ndarray, np.ndarray]:
    """Quotient matrix and class degrees; Mismatch when not equitable."""
    d = w.sum(axis=1)
    p = w / d[:, None]
    sums = np.stack([p[:, list(cls)].sum(axis=1) for cls in classes], axis=1)
    for k, cls in enumerate(classes):
        spread = np.abs(sums[list(cls)] - sums[cls[0]]).max()
        require(spread <= EQ_TOL, f"class {k} is not equitable (spread {spread:.2e})")
    pbar = sums[[cls[0] for cls in classes]]
    dbar = np.array([d[list(cls)].sum() for cls in classes])
    return pbar, dbar


def quotient_spectrum(pbar: np.ndarray, dbar: np.ndarray) -> np.ndarray:
    """Eigenvalues (descending) of D^1/2 Pbar D^-1/2, symmetric by detailed balance."""
    root = np.sqrt(dbar)
    s = root[:, None] * pbar / root[None, :]
    return np.linalg.eigvalsh((s + s.T) / 2.0)[::-1]


def _bipartite(pbar: np.ndarray) -> bool:
    r = pbar.shape[0]
    color = [-1] * r
    for start in range(r):
        if color[start] != -1:
            continue
        color[start], stack = 0, [start]
        while stack:
            a = stack.pop()
            for b in range(r):
                if b == a or (pbar[a, b] == 0.0 and pbar[b, a] == 0.0):
                    continue
                if color[b] == -1:
                    color[b] = 1 - color[a]
                    stack.append(b)
                elif color[b] == color[a]:
                    return False
    return True


def jacobian_abscissa(w: np.ndarray, h: float, u: np.ndarray) -> float:
    """Largest eigenvalue of -I + diag(T'(u)) P through its symmetric twin
    -I - diag(sqrt(|t|/d)) W diag(sqrt(|t|/d))."""
    scale = np.sqrt(np.abs(hill_slope(h, u)) / w.sum(axis=1))
    s = -scale[:, None] * w * scale[None, :]
    return float(-1.0 + np.linalg.eigvalsh((s + s.T) / 2.0)[-1])


def check_analyze(bundle: dict, rc: int, graph_w: np.ndarray, classes, h: float,
                  simulated: bool) -> None:
    """Existence, pattern, stability and exit-code oracles for one bundle.

    graph_w is the benchmark's own construction of the graph and classes
    the partition the op asked for; h is the model's Hill exponent.
    """
    gdata = bundle["graph"]["data"]
    w = weights_from_edges(gdata["n"], gdata["edges"])
    require(w.shape == graph_w.shape and np.allclose(
        np.linalg.eigvalsh(w), np.linalg.eigvalsh(graph_w), atol=EIG_TOL),
        "bundle graph is not cospectral with the requested lattice")
    got = bundle["partition"]["data"]["classes"]
    require(as_classes(got) == as_classes(classes), "bundle partition differs from the requested one")

    pbar, dbar = quotient(w, got)
    eigs = quotient_spectrum(pbar, dbar)
    quot = bundle["quotient"]["data"]
    require(np.allclose(quot["eigenvalues"], eigs, atol=EIG_TOL, rtol=0),
            "quotient eigenvalues disagree with eigvalsh")
    lam = float(eigs[-1])
    certified = _bipartite(pbar) and abs(h / 2.0) * lam < -1.0
    cert = bundle["certificate"]["data"]
    require(abs(cert["lambda_r"] - lam) <= EIG_TOL, f"lambda_r {cert['lambda_r']} != {lam}")
    require((cert["verdict"] == CERTIFIED) == certified,
            f"verdict {cert['verdict']} but |h/2| lam_min = {abs(h / 2) * lam:.6g}")

    z = np.asarray(bundle["pattern"]["data"]["z"], dtype=float)
    require(bool(np.all(z >= 0)), "negative class value")
    reduced = float(np.abs(z - pbar @ hill(h, z)).max())
    require(reduced <= RESIDUAL_TOL, f"reduced residual {reduced:.2e}")
    u = np.empty(w.shape[0])
    for k, cls in enumerate(got):
        u[list(cls)] = z[k]
    full = float(np.abs(u - (w / w.sum(axis=1)[:, None]) @ hill(h, u)).max())
    require(full <= RESIDUAL_TOL, f"full residual {full:.2e}")
    require((np.ptp(z) > 1e-6) == certified, "pattern homogeneity disagrees with the verdict")

    abscissa = jacobian_abscissa(w, h, u)
    stab = bundle["stability"]["data"]
    require(abs(stab["full_spectral_abscissa"] - abscissa) <= ABSCISSA_TOL,
            f"abscissa {stab['full_spectral_abscissa']} != eigvalsh {abscissa}")
    verdict = ("STABLE" if abscissa < -STABILITY_MARGIN
               else "UNSTABLE" if abscissa > STABILITY_MARGIN else "MARGINAL")
    require(stab["full_verdict"] == verdict, f"stability verdict {stab['full_verdict']} != {verdict}")
    expected_rc = 2 if not certified else 0 if verdict == "STABLE" else 3
    require(rc == expected_rc, f"exit code {rc}, expected {expected_rc}")

    sim = bundle.get("simulation")
    require((sim is not None) == simulated, "simulation section presence is wrong")
    if simulated:
        data = sim["data"]
        require(data["converged"] and data["match"], f"simulation did not confirm: {data['note']}")


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def check_steady(summary: dict, graph_w: np.ndarray, h: float) -> None:
    """The run converged and its final state solves x = T(P x)."""
    require(summary["converged"] is True, "simulation did not converge")
    x = np.asarray(summary["final_state"], dtype=float)
    require(x.shape == (graph_w.shape[0],), "final state has the wrong length")
    require(bool(np.all((x >= 0) & (x <= 2.0))), "final state left [0, A]")
    p = graph_w / graph_w.sum(axis=1)[:, None]
    residual = float(np.abs(-x + hill(h, p @ x)).max())
    require(residual <= STEADY_TOL, f"final |-x + T(Px)| = {residual:.2e}")


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

def hex_point_orbits(rows: int, cols: int, v: int) -> frozenset:
    """Orbits of the 12 axial point-group maps (rotations by 60 degrees and
    their reflections) fixing cell v of the hex torus."""
    rot = np.array([[0, -1], [1, 1]])
    mirror = np.array([[0, 1], [1, 0]])
    maps = [np.linalg.matrix_power(rot, k) @ m for k in range(6) for m in (np.eye(2, dtype=int), mirror)]
    vi, vj = divmod(v, cols)
    orbit_of: dict[int, frozenset] = {}
    for cell in range(rows * cols):
        if cell in orbit_of:
            continue
        a, b = cell // cols - vi, cell % cols - vj
        orbit = frozenset(((vi + x) % rows) * cols + (vj + y) % cols
                          for x, y in (m @ (a, b) for m in maps))
        for member in orbit:
            orbit_of[member] = orbit
    return frozenset(orbit_of.values())


def check_refinement(out: dict, graph_w: np.ndarray, expected: frozenset) -> None:
    """The refinement is equitable, equals the expected orbit partition and
    reports the quotient spectrum eigvalsh gives."""
    classes = [list(cls) for cls in out["classes"]]
    require(out["equitable"] is True, "program reports a non-equitable refinement")
    pbar, dbar = quotient(graph_w, classes)
    require(as_classes(classes) == expected,
            f"refinement has {len(classes)} classes, orbit partition {len(expected)}")
    require(np.allclose(out["eigenvalues"], quotient_spectrum(pbar, dbar), atol=EIG_TOL, rtol=0),
            "quotient eigenvalues disagree with eigvalsh")
