"""Exception types shared across the package.

Everything derives from ValueError or RuntimeError so callers that do not
care about the fine distinctions can still catch broadly.
"""

__all__ = [
    "ShapeError",
    "DomainError",
    "DegenerateInputError",
    "DegenerateFactorError",
    "RankError",
    "SpecError",
    "SizeLimitError",
    "ParseError",
    "ConvergenceError",
]


class ShapeError(ValueError):
    """An array has the wrong number of dimensions or incompatible shape."""


class DomainError(ValueError):
    """Values outside the valid domain (negative where nonnegativity is
    required, NaN or Inf anywhere)."""


class DegenerateInputError(DomainError):
    """Input that is structurally unusable, e.g. an all-zero data matrix."""


class DegenerateFactorError(ValueError):
    """A factor matrix lost rank in a way the operation cannot handle,
    e.g. an all-zero basis column where a unit norm is required."""


class RankError(ValueError):
    """Requested factorization rank outside [1, min(M, N)]."""


class SpecError(ValueError):
    """Invalid synthetic dataset specification."""


class SizeLimitError(ValueError):
    """A problem exceeds the cap of an exact (enumerative) routine."""


class ParseError(ValueError):
    """Malformed input file. The message names the offending line or row."""


class ConvergenceError(RuntimeError):
    """An iterative routine hit its iteration limit without meeting its
    termination test.  ``best`` holds a feasible iterate (for NNLS, the
    zero vector), so the caller can salvage a usable answer."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best
