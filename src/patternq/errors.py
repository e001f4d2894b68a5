"""Exception hierarchy shared by all patternq modules."""


class PatternQError(Exception):
    """Base class for all errors raised by this package."""


# ---- graph construction / queries ----

class GraphError(PatternQError):
    pass


class SelfLoop(GraphError):
    pass


class DuplicateEdge(GraphError):
    pass


class BadIndex(GraphError):
    pass


class NonpositiveWeight(GraphError):
    pass


class IsolatedVertex(GraphError):
    pass


class NotConnected(GraphError):
    pass


class BadLatticeSize(GraphError):
    pass


# ---- partitions ----

class PartitionMismatch(PatternQError):
    pass


class NotEquitable(PatternQError):
    """An inequitable partition, with the failed check's witness
    (class_i, class_j, vertex_u, vertex_v, sum_u, sum_v)."""

    def __init__(self, message: str, witness: tuple):
        super().__init__(message)
        self.witness = witness


class NotPermutation(PatternQError):
    pass


class NotAutomorphism(PatternQError):
    pass


class SingularTransform(PatternQError):
    pass


# ---- spectral machinery ----

class NotSymmetric(PatternQError):
    pass


class NoConvergence(PatternQError):
    pass


class DetailedBalanceViolated(PatternQError):
    pass


# ---- cell model ----

class NegativeInput(PatternQError):
    pass


# ---- existence / patterns ----

class OnlyHomogeneousFound(PatternQError):
    """Both solver starts collapsed to the homogeneous state despite a
    certified eigenvalue condition; raised loudly, never silently accepted."""


class DimensionMismatch(PatternQError):
    pass


# ---- stability ----

class NotSteadyState(PatternQError):
    pass


# ---- simulation ----

class StateOutOfBox(PatternQError):
    pass


class BadOptions(PatternQError):
    pass


class NotConverged(PatternQError):
    pass


# ---- CLI / bundles ----

class BadBundle(PatternQError):
    pass
