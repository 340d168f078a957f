"""Exception hierarchy shared by all pfmodel modules.

Every error raised by the library derives from :class:`PFModelError`, so
callers (notably the CLI) can distinguish "bad input" from genuine bugs.
"""

from __future__ import annotations


class PFModelError(Exception):
    """Base class for all pfmodel errors."""

    # KeyError's __str__ would wrap the message of the KeyError subclasses
    # below in quotes; every pfmodel error prints its message as given.
    __str__ = Exception.__str__


# --- taxonomy structure ------------------------------------------------------

class MultipleRootsError(PFModelError):
    """More than one category has no parent."""


class CycleDetectedError(PFModelError):
    """The covering relation contains a cycle (or a self-loop)."""


class DuplicateEdgeError(PFModelError):
    """The same (child, parent) covering edge was given twice."""


class UnknownCategoryError(PFModelError, KeyError):
    """A category name does not exist in the taxonomy."""


# --- probabilistic data ------------------------------------------------------

class OutOfRangeProbabilityError(PFModelError, ValueError):
    """A probability is outside [0, 1] or a row/total normalization fails."""


class MissingEdgeProbabilityError(PFModelError):
    """A computation needs the f of a covering edge that carries none."""


class MissingGammaError(PFModelError, KeyError):
    """No normalized confusion matrix is resolvable for a classifier."""


class RootProfileForbiddenError(PFModelError):
    """A confusion profile was supplied for the root, whose behavior is fixed."""


# --- imbalance sweep ---------------------------------------------------------

class InfeasibleTargetError(PFModelError, ValueError):
    """An imbalance sweep target cannot be realized on the given pipeline."""


# --- parsing -----------------------------------------------------------------

class ParseError(PFModelError, ValueError):
    """An input file is malformed.  Carries a human-readable location."""

    def __init__(self, message: str, location: str | None = None):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)
