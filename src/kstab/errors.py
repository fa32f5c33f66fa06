"""Exception hierarchy shared by all kstab modules.

Every exception carries a short machine-readable ``code`` so that sweep
drivers can emit rectangular tables with ``error:<code>`` verdicts instead
of aborting mid-run.
"""

from __future__ import annotations


class KstabError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"


class InvalidParameterError(KstabError, ValueError):
    """An argument is outside the documented domain of an operation."""

    code = "invalid-parameter"


class EmptyRegionError(KstabError):
    """A halfplane intersection (or segment) is empty."""

    code = "empty"


class UnboundedRegionError(KstabError):
    """A halfplane intersection is unbounded."""

    code = "unbounded"


class DegenerateRegionError(KstabError):
    """A region is nonempty but not full-dimensional (point or segment)."""

    code = "degenerate"


class ZeroMassError(KstabError):
    """A weight integrates to zero, so no barycenter is defined."""

    code = "zero-mass"


class WeightPositivityError(KstabError):
    """A weight factor fails to be nonnegative on its domain."""

    code = "weight-not-positive"


class NotAmpleError(KstabError):
    """An operation that requires an ample divisor received a non-ample one."""

    code = "not-ample"


class NotAnticanonicalError(KstabError):
    """An operation that requires the anticanonical divisor received another one."""

    code = "not-anticanonical"


class NoBracketError(KstabError):
    """A sign-change search was started from endpoints with equal residual signs."""

    code = "no-bracket"


class ContractError(KstabError):
    """An internal invariant was violated; indicates a caller or logic bug."""

    code = "contract-breach"
