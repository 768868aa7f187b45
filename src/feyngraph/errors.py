"""Exception hierarchy for the feyngraph library.

Every structural validation failure raises a named error so callers (and the
CLI) can distinguish bad input (exit 2) from a failed check (exit 1).
"""


class FeynGraphError(Exception):
    """Base class for all library errors."""


class GraphInvariantError(FeynGraphError):
    """A graph description violates a structural invariant."""


class NonInjectiveS(GraphInvariantError):
    pass


class FixedPointInTau(GraphInvariantError):
    pass


class TauNotInvolutive(GraphInvariantError):
    pass


class DanglingId(GraphInvariantError):
    pass


class BadParameter(FeynGraphError):
    pass


def require_nonnegative(owner: str, **bounds: int) -> None:
    """Raise BadParameter for the first negative one of the bounds."""
    for name, n in bounds.items():
        if n < 0:
            raise BadParameter(f"{owner} needs {name} >= 0, not {n}")


class UnknownEdge(FeynGraphError):
    pass


class UnknownVertex(FeynGraphError):
    pass


class NotCommuting(FeynGraphError):
    """A morphism square fails to commute with s, t or tau."""


class NotLocallyBijective(FeynGraphError):
    """The pullback condition fails at a vertex."""


class NotAPort(FeynGraphError):
    pass


class RepeatedPort(FeynGraphError):
    pass


class InvalidGraphOfGraphs(FeynGraphError):
    pass


class NotDeletable(FeynGraphError):
    """Vertex deletion requested at a vertex of valency not in {0, 2}."""


class ArityMismatch(FeynGraphError):
    pass


class ColourMismatch(FeynGraphError):
    pass


class ValencyOutOfRange(FeynGraphError):
    pass


class OutOfBounds(FeynGraphError):
    """A law application would exceed the configured bounds."""


class BoundsTooLarge(OutOfBounds):
    """A search would take more steps than FEYNGRAPH_MAX_SEARCH allows."""


class Mismatch(FeynGraphError):
    """Kleisli composition endpoints do not line up."""


class CorpusNotElementClosed(FeynGraphError):
    pass


class NotACorolla(FeynGraphError):
    """A corolla was required: one vertex with every edge at it (no inner
    edge, no stick component)."""


class FormatError(FeynGraphError):
    """Malformed input file or description."""
