"""Exception types raised by the toolkit.

Every validation error names the offending element so callers (and the CLI)
can report exactly what was wrong with the input.
"""


class SteklovError(Exception):
    """Base class for all toolkit errors."""


# ---------------------------------------------------------------------------
# graph construction / validation
# ---------------------------------------------------------------------------

class DuplicateVertex(SteklovError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"duplicate vertex id {vertex!r}")


class SelfLoop(SteklovError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"self-loop at vertex {vertex!r}")


class DuplicateEdge(SteklovError):
    def __init__(self, u, v):
        self.edge = (u, v)
        super().__init__(f"duplicate edge {{{u!r}, {v!r}}}")


class NonPositiveValue(SteklovError):
    """A vertex measure or edge weight is not a finite positive number."""

    def __init__(self, kind, element, value):
        self.kind = kind
        self.element = element
        self.value = value
        super().__init__(f"{kind} of {element!r} must be a finite positive number, got {value!r}")


class DegreeOverflow(SteklovError):
    """Deg(x) = (1/m_x) sum_y w_xy is so large that its square, the scale of the Gamma2 forms, overflows a float."""

    def __init__(self, vertex, degree):
        self.vertex = vertex
        self.degree = degree
        super().__init__(f"Deg({vertex!r}) = {degree:g} is too large: its square overflows a float; "
                         "rescale the weights or the measures")


class Disconnected(SteklovError):
    def __init__(self, unreachable):
        self.unreachable = tuple(unreachable)
        super().__init__(f"graph is not connected; unreachable vertices: {list(self.unreachable)!r}")


class UnknownVertex(SteklovError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"unknown vertex {vertex!r}")


# ---------------------------------------------------------------------------
# boundary attachment
# ---------------------------------------------------------------------------

class BoundaryNotIndependent(SteklovError):
    def __init__(self, u, v):
        self.pair = (u, v)
        super().__init__(f"boundary vertices {u!r} and {v!r} are adjacent")


class BoundaryVertexIsolatedFromInterior(SteklovError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"boundary vertex {vertex!r} has no interior neighbor")


class EmptyBoundary(SteklovError):
    def __init__(self):
        super().__init__("boundary set is empty")


class EmptyInterior(SteklovError):
    def __init__(self):
        super().__init__("interior set is empty (boundary covers every vertex)")


# ---------------------------------------------------------------------------
# files and parameters
# ---------------------------------------------------------------------------

class ParseError(SteklovError):
    def __init__(self, line, reason):
        self.line = line
        self.reason = reason
        where = f"line {line}" if line is not None else "document"
        super().__init__(f"parse error at {where}: {reason}")


class InvalidFamilyParams(SteklovError):
    def __init__(self, family, reason):
        self.family = family
        self.reason = reason
        super().__init__(f"invalid parameters for family {family!r}: {reason}")


class InvalidParams(SteklovError):
    pass


class InvalidDimensionParam(SteklovError):
    def __init__(self, n):
        self.n = n
        super().__init__(f"dimension parameter must satisfy n > 1 (inf allowed), got {n!r}")


# ---------------------------------------------------------------------------
# operators and solvers
# ---------------------------------------------------------------------------

class DomainMismatch(SteklovError):
    def __init__(self, expected, got):
        self.expected = tuple(expected)
        self.got = tuple(got)
        super().__init__(
            f"function domain mismatch: expected vertex set {list(self.expected)!r}, "
            f"got {list(self.got)!r}"
        )


class IsolatedVertex(SteklovError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"vertex {vertex!r} has no neighbors; curvature is undefined")


class SingularInteriorSystem(SteklovError):
    def __init__(self, component):
        self.component = tuple(component)
        super().__init__(
            f"interior system is singular; interior component {list(self.component)!r} "
            "has no boundary edge"
        )


class NumericallySingularInterior(SingularInteriorSystem):
    """Every interior component has a boundary edge, yet L_OO is singular in floating point."""

    def __init__(self, interior):
        self.component = tuple(interior)
        SteklovError.__init__(self, f"interior system is numerically singular: every component of the interior "
                              f"{list(self.component)!r} has a boundary edge, but L_OO is not positive definite, or "
                              "too ill-conditioned for an accurate solve, in floating point (boundary weights lost in "
                              "rounding beside far larger interior weights?)")


# ---------------------------------------------------------------------------
# rigidity
# ---------------------------------------------------------------------------

class NotInteriorVertex(SteklovError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"vertex {vertex!r} is not an interior vertex")


class PreconditionViolated(SteklovError):
    pass


class WrongWeightClass(SteklovError):
    pass


class WrongHypothesis(SteklovError):
    pass


class InteriorNotComplete(SteklovError):
    def __init__(self, u, v):
        self.pair = (u, v)
        super().__init__(f"interior graph is not complete: vertices {u!r}, {v!r} not adjacent")


class InteriorCurvatureNotPositive(SteklovError):
    pass


class FeasibilitySearchFailed(SteklovError):
    def __init__(self, lam_max):
        self.lam_max = lam_max
        super().__init__(f"no feasible interior weight scale found below {lam_max:g}")
