"""Moment vectors, which are also the coefficient vectors of the target Hamiltonian.

The target Hamiltonian assembled from moments is F = sum_m <O_m> O_m, so over
the orthogonal basis its coefficient vector c is the moment vector itself,
and each group conjugation of F rotates c in the adjoint representation.
The Cartan-Weyl form is read off c through `algebra.cartan_weyl`: gamma_r is
c on the CSA indices and iota_l = c[u] - i c[v] on root l's partner pair
(u, v), so that F = sum_r gamma_r H_r + sum_l (iota_l E+_l + iota_l* E-_l).
"""

from dataclasses import dataclass

import numpy as np

from .algebra import _freeze
from .errors import InvalidParameter, LengthMismatch, NonFiniteMoments


@dataclass(frozen=True)
class MomentVector:
    """Expectation values <O_m> (exact) or estimates (sampled).

    Values are stored untruncated even when shot noise pushes them slightly
    past ||O_m||; clipping happens only when a Hamiltonian is assembled.
    """

    values: np.ndarray
    source: str = "exact"
    shots: int = None
    seed: int = None

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values, float))
        if self.source not in ("exact", "sampled"):
            raise InvalidParameter("source must be 'exact' or 'sampled'")

    @property
    def purity(self):
        """The algebra purity sum_m <O_m>^2; group-invariant, maximal on GCSs."""
        return float(np.dot(self.values, self.values))

    def __len__(self):
        return self.values.size


def require_finite(values, context="moment vector"):
    """Raise NonFiniteMoments unless every value is finite."""
    if not np.isfinite(values).all():
        raise NonFiniteMoments(f"{context} holds NaN or infinite values")


def build_target(moments, algebra):
    """Coefficient vector c of F = sum_m <O_m> O_m over the orthogonal basis.

    Sampled estimates are clipped into [-||O_m||, ||O_m||] here (and only
    here); the raw moment vector stays auditable.
    """
    if len(moments) != algebra.dim:
        raise LengthMismatch(
            f"moment vector has length {len(moments)}, algebra dimension is {algebra.dim}"
        )
    values = np.asarray(moments.values, dtype=float)
    require_finite(values)
    if moments.source == "sampled":
        bounds = algebra.basis.observable_norms
        values = np.clip(values, -bounds, bounds)
    return values


def root_coefficients(coeffs, algebra):
    """iota_l = c[u] - i c[v] for each root l with partner pair (u, v)."""
    u, v = algebra.cartan_weyl.pair_indices
    return coeffs[u] - 1j * coeffs[v]


def offdiag_distance(coeffs, algebra):
    """Squared distance to the CSA: d = sum_l |iota_l|^2."""
    iota = np.abs(root_coefficients(coeffs, algebra))
    return float(iota.dot(iota))
