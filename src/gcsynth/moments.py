"""Moment vectors and the Cartan-Weyl coefficient form of the target Hamiltonian.

The target Hamiltonian assembled from moments is F = sum_m <O_m> O_m; its
Cartan-Weyl coefficients are gamma_r on the CSA and iota_l on the roots,
with iota_l = <O_u> - i <O_v> for the root's partner pair (u, v), so that
F = sum_r gamma_r H_r + sum_l (iota_l E+_l + iota_l* E-_l).
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameter, LengthMismatch, NonFiniteMoments

RECONSTRUCTION_TOL = 1e-10


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
        vals = np.array(self.values, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if self.source not in ("exact", "sampled"):
            raise InvalidParameter("source must be 'exact' or 'sampled'")

    @property
    def purity(self):
        return float(np.dot(self.values, self.values))

    def __len__(self):
        return self.values.size


def require_finite(values, context="moment vector"):
    """Raise NonFiniteMoments unless every value is finite."""
    if not np.isfinite(values).all():
        raise NonFiniteMoments(f"{context} holds NaN or infinite values")


def purity(moments):
    """The algebra purity sum_m <O_m>^2; group-invariant, maximal on GCSs."""
    return moments.purity


@dataclass(frozen=True)
class CwDecomposition:
    """Cartan-Weyl coefficients (gamma_r, iota_l) of a Hamiltonian in the algebra."""

    gamma: np.ndarray
    iota: np.ndarray
    step_index: int = 0

    def __post_init__(self):
        g = np.array(self.gamma, dtype=float)
        i = np.array(self.iota, dtype=complex)
        g.setflags(write=False)
        i.setflags(write=False)
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "iota", i)

    @property
    def coefficient_norm_sq(self):
        """Tr(F^2)/N in coefficient form; conserved under group conjugation."""
        return float(np.dot(self.gamma, self.gamma) + np.abs(self.iota).dot(np.abs(self.iota)))


def build_target(moments, algebra):
    """Cartan-Weyl coefficients of F = sum_m <O_m> O_m.

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
        bounds = algebra.observable_norms
        values = np.clip(values, -bounds, bounds)
    return decomposition_from_coefficients(values, algebra)


def offdiag_distance(decomp):
    """Squared distance to the CSA: d = sum_l |iota_l|^2."""
    return float(np.abs(decomp.iota).dot(np.abs(decomp.iota)))


def project_csa(decomp):
    """Diagonal part: keep gamma, zero every root coefficient."""
    return replace(decomp, iota=np.zeros_like(decomp.iota))


def assemble_operator(decomp, algebra):
    """Dense defining-representation matrix of a CwDecomposition."""
    out = np.einsum("r,rij->ij", decomp.gamma, algebra.csa_ops).astype(complex)
    part = np.einsum("l,lij->ij", decomp.iota, np.asarray(algebra.cartan_weyl.raising_ops))
    return out + part + part.conj().T


def decomposition_coefficients(decomp, algebra):
    """Length-M coefficient vector of a CwDecomposition over the orthogonal basis."""
    cw = algebra.cartan_weyl
    u, v = cw.pair_indices
    out = np.zeros(algebra.dim)
    out[list(cw.csa_indices)] = decomp.gamma
    out[u] = decomp.iota.real
    out[v] = -decomp.iota.imag
    return out


def decomposition_from_coefficients(coeffs, algebra, step_index=0):
    """CwDecomposition of sum_m coeffs[m] O_m; inverse of `decomposition_coefficients`."""
    cw = algebra.cartan_weyl
    u, v = cw.pair_indices
    return CwDecomposition(gamma=coeffs[list(cw.csa_indices)],
                           iota=coeffs[u] - 1j * coeffs[v], step_index=step_index)


def decomposition_from_operator(matrix, algebra):
    """Project a defining-representation matrix onto Cartan-Weyl coefficients."""
    mats = np.asarray(algebra.basis.basis)
    coeffs = np.einsum("ij,mji->m", np.asarray(matrix, dtype=complex), mats) \
        / algebra.norm
    return decomposition_from_coefficients(coeffs.real, algebra)
