"""Exception types shared across the package."""

from __future__ import annotations


class ProjIFSError(Exception):
    """Base class for errors raised by this package."""


class DegenerateMatrixError(ProjIFSError):
    """Matrix is singular, orientation-reversing, or otherwise not usable."""


class DegenerateDirectionsError(ProjIFSError):
    """Singular directions are numerically undefined (matrix too close to a rotation)."""


class ConfigError(ProjIFSError):
    """Malformed config file. Carries line/column when known."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class BudgetExceededError(ProjIFSError):
    """Enumeration budget ran out.  Partial progress statistics are attached."""

    def __init__(self, message, words_done=0, depth_reached=0):
        super().__init__(f"{message} [words_done={words_done}, depth_reached={depth_reached}]")
        self.words_done = words_done
        self.depth_reached = depth_reached


class CertificationError(ProjIFSError):
    """A requested certificate could not be established."""


class NotReducibleError(ProjIFSError):
    """System has no common fixed point, so the reducible-case analysis does not apply."""


class PivotNotFoundError(ProjIFSError):
    """No pivot word satisfied the containment conditions at the searched depth."""


class InfiniteOrderEllipticError(ProjIFSError):
    """An elliptic matrix acts with irrational rotation number: no finite order."""


class NonConvergenceError(ProjIFSError):
    """Too many orbit samples failed to converge within the iteration cap."""
