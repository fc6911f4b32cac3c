"""Exception and warning types shared across the toolkit.

Each error states its CLI exit status (`exit_status`: 1 for bad input, 2 for
a `NumericalFailure`) and what its JSON error line carries (`carried`).  The
bad-input errors come first, then the numerical failures, then the warning.
`is_integer` is the one test of what counts as an integer argument.
"""

import numpy as np


class GcsynthError(Exception):
    """Base class for all toolkit errors: bad input, exit status 1."""

    exit_status = 1
    carried = ()  # attributes the JSON error line carries besides name and message


class NumericalFailure(GcsynthError):
    """Well-formed input on which the numerics failed; exit status 2."""

    exit_status = 2


def exit_record(exc):
    """(exit status, JSON error record) of an exception that ends a CLI run; one
    from outside the toolkit (an unreadable file) is bad input, exit 1."""
    kind = type(exc) if isinstance(exc, GcsynthError) else GcsynthError
    return kind.exit_status, dict(error=type(exc).__name__, message=str(exc),
                                  **{name: getattr(exc, name) for name in kind.carried})


class InvalidParameter(GcsynthError, ValueError):
    """An argument is out of range or of the wrong kind (tolerance, shot or op
    count, catalog name or parameter, moment source)."""


def is_integer(value):
    """True for an int or a NumPy integer.  Booleans are not integers here,
    as in the file loaders."""
    return type(value) is int or (  # a plain int skips both tests
        not isinstance(value, bool) and isinstance(value, (int, np.integer)))


def integer_argument(value, name, low, high=None, rule=None):
    """value as an int in low..high (no upper end when high is None), else
    InvalidParameter.  `rule` words both messages in place of "an integer"
    and the bounds."""
    if not is_integer(value):
        raise InvalidParameter(f"{name} must be {rule or 'an integer'}, got {value!r}")
    if value < low or (high is not None and value > high):
        bounds = f"in {low}..{high}" if high is not None else f">= {low}"
        raise InvalidParameter(f"{name} must be {rule or bounds}, got {value}")
    return int(value)


class InvalidAlgebraSpec(GcsynthError):
    """Basis shapes, normalization or CSA/root indices are malformed."""


class NonHermitianInput(GcsynthError):
    """A matrix that must be Hermitian is not."""


class GramNotDiagonal(GcsynthError):
    """Basis elements are not pairwise trace-orthogonal; rescaling cannot fix this."""


class LinearlyDependentBasis(GcsynthError):
    """Basis contains a (numerically) zero or dependent element."""


class BasisNotClosed(GcsynthError):
    """Some commutator leaves the span of the basis."""


class KillingFormDegenerate(GcsynthError):
    """Killing form is singular; the algebra is not semisimple."""


class CsaNotAbelian(GcsynthError):
    """Declared Cartan-subalgebra generators do not commute."""


class RootPairNotEigenvector(GcsynthError):
    """A declared raising operator is not a simultaneous ad-eigenvector of the CSA."""


class ZeroRootBracket(GcsynthError):
    """[E+, E-] vanished for some root; the pair is invalid."""


class RootSpectrumIllConditioned(GcsynthError):
    """A root generator has too many distinct eigenvalues for its closed-form rotation."""


class NotUnique(GcsynthError):
    """The joint kernel of the raising operators does not single out one state."""


class ShotCountOverflow(GcsynthError):
    """A shot count exceeds what the int64 sampler can draw."""


class RootIndexOutOfRange(GcsynthError):
    """A group operation names a root the algebra does not have."""


class LengthMismatch(GcsynthError):
    """Moment vector length does not match the algebra dimension."""


class NonFiniteMoments(GcsynthError):
    """A moment vector holds NaN or infinite values."""


class AlreadyDiagonal(GcsynthError):
    """Pivot selection requested on a coefficient vector with no off-diagonal part."""


class ZeroPivot(GcsynthError):
    """Step planning requested for a root with zero coefficient."""


class LeavesAlgebraSpan(GcsynthError):
    """A gate's conjugation action does not preserve the algebra span."""


class NonFiniteGate(GcsynthError):
    """A gate matrix or group-op exponent holds NaN or infinite values."""


class InvalidGate(GcsynthError):
    """A gate matrix has the wrong size or is not unitary."""


class ParseError(GcsynthError):
    """An artifact file is malformed."""


class StepDidNotReducePivot(NumericalFailure):
    """Pivot coefficient survived its planned step; algebra data inconsistent."""


class MaxStepsExceeded(NumericalFailure):
    """Diagonalization did not reach the target distance; carries the d trace."""

    carried = ("trace",)

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []


class DegenerateTop(NumericalFailure):
    """Top eigenvalue of the CSA element is (numerically) degenerate."""


class NoProgress(NumericalFailure):
    """No Weyl reflection advances the state toward the highest weight."""


class ZeroGap(NumericalFailure):
    """Spectral gap of the highest-weight Hamiltonian vanished."""


class NotAGcs(NumericalFailure):
    """Moment vector fails the purity certificate."""


class GapBudgetInfeasible(UserWarning):
    """Requested per-moment precision exceeds the observable norm; budget demands nothing."""
