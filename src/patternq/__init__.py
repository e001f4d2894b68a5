"""patternq: steady-state pattern certification for lateral-inhibition networks.

Pipeline: build a weighted contact graph, find or verify an equitable vertex
partition, form the row-stochastic quotient, test the existence condition on
its minimum eigenvalue, solve the reduced fixed-point equation, lift the
class values to the full network, certify stability (block decomposition,
small gain), and confirm by direct simulation.
"""

__version__ = "0.1.0"

from .cells import FixedPoint, HillMap, cell_rhs, dc_gain, fixed_point, t_eval, t_prime
from .errors import PatternQError
from .existence import (ASSUMPTION_FAILED, CERTIFIED, INCONCLUSIVE, ExistenceCertificate,
                        PatternSolution, certify, lift, solve_reduced)
from .graphs import (ScaledAdjacency, WeightedGraph, bipartition, build_graph, generate,
                     is_connected, scaled_adjacency)
from .ode import Settled
from .partitions import (BlockDecomposition, Partition, QuotientModel, block_decompose,
                         coarsest_equitable_refinement, is_equitable, make_partition,
                         orbits_from_generators, quotient)
from .simulate import (CertificateCheck, EmpiricalPattern, classify, integrate, perturbed_start,
                       verify_certificate)
from .spectral import Spectrum, jacobian_spectrum, sym_eigen
from .stability import (CERTIFIED_STABLE, MARGINAL, NOT_CERTIFIED, STABLE, UNSTABLE,
                        StabilityReport, block_stability, small_gain, stability_report)

__all__ = [
    "__version__",
    "PatternQError",
    # graphs
    "WeightedGraph", "ScaledAdjacency", "build_graph", "scaled_adjacency",
    "is_connected", "bipartition", "generate",
    # partitions
    "Partition", "QuotientModel", "BlockDecomposition", "make_partition",
    "is_equitable", "quotient", "coarsest_equitable_refinement",
    "orbits_from_generators", "block_decompose",
    # spectral
    "Spectrum", "sym_eigen", "jacobian_spectrum",
    # cells
    "HillMap", "FixedPoint", "t_eval", "t_prime", "fixed_point", "cell_rhs",
    "dc_gain",
    # existence
    "CERTIFIED", "INCONCLUSIVE", "ASSUMPTION_FAILED", "ExistenceCertificate",
    "PatternSolution", "certify", "solve_reduced", "lift",
    # stability
    "STABLE", "UNSTABLE", "MARGINAL", "CERTIFIED_STABLE", "NOT_CERTIFIED",
    "StabilityReport", "block_stability", "small_gain", "stability_report",
    # simulation
    "Settled", "EmpiricalPattern", "CertificateCheck",
    "integrate", "perturbed_start", "classify", "verify_certificate",
]
