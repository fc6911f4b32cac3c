"""Exception and warning types shared across the toolkit."""


class GcsynthError(Exception):
    """Base class for all toolkit errors."""


class InvalidParameter(GcsynthError, ValueError):
    """An argument is out of range or of the wrong kind (tolerance, shot or op
    count, catalog name or parameter, moment source)."""


# ---------------------------------------------------------------------------
# Algebra construction and validation
# ---------------------------------------------------------------------------

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


class ValidationFailed(GcsynthError):
    """An algebra failed its invariant suite; carries the diagnostic report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


# ---------------------------------------------------------------------------
# States and measurement
# ---------------------------------------------------------------------------

class NotUnique(GcsynthError):
    """The joint kernel of the raising operators does not single out one state."""


class NonHermitianObservable(GcsynthError):
    """Expectation requested for a non-Hermitian matrix."""


class ShotCountOverflow(GcsynthError):
    """A shot count exceeds what the int64 sampler can draw."""


class RootIndexOutOfRange(GcsynthError):
    """A group operation names a root the algebra does not have."""


# ---------------------------------------------------------------------------
# Moments and diagonalization
# ---------------------------------------------------------------------------

class LengthMismatch(GcsynthError):
    """Moment vector length does not match the algebra dimension."""


class NonFiniteMoments(GcsynthError):
    """A moment vector holds NaN or infinite values."""


class AlreadyDiagonal(GcsynthError):
    """Pivot selection requested on a coefficient vector with no off-diagonal part."""


class ZeroPivot(GcsynthError):
    """Step planning requested for a root with zero coefficient."""


class StepDidNotReducePivot(GcsynthError):
    """Pivot coefficient survived its planned step; algebra data inconsistent."""


class MaxStepsExceeded(GcsynthError):
    """Diagonalization did not reach the target distance; carries the d trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []


# ---------------------------------------------------------------------------
# Weight states and Weyl mapping
# ---------------------------------------------------------------------------

class DegenerateTop(GcsynthError):
    """Top eigenvalue of the CSA element is (numerically) degenerate."""


class NotAWeightState(GcsynthError):
    """Input state is not a simultaneous CSA eigenvector."""


class NoProgress(GcsynthError):
    """No Weyl reflection advances the state toward the highest weight."""


# ---------------------------------------------------------------------------
# Pipeline and LQC
# ---------------------------------------------------------------------------

class ZeroGap(GcsynthError):
    """Spectral gap of the highest-weight Hamiltonian vanished."""


class LeavesAlgebraSpan(GcsynthError):
    """A gate's conjugation action does not preserve the algebra span."""


class NonFiniteGate(GcsynthError):
    """A gate matrix or group-op exponent holds NaN or infinite values."""


class InvalidGate(GcsynthError):
    """A gate matrix has the wrong size or is not unitary."""


class NotAGcs(GcsynthError):
    """Moment vector fails the purity certificate."""


class ParseError(GcsynthError):
    """An artifact file is malformed."""


class GapBudgetInfeasible(UserWarning):
    """Requested per-moment precision exceeds the observable norm; budget demands nothing."""
