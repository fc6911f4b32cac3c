"""Semisimple Lie algebras as Hermitian matrix bases.

An algebra is represented by an orthogonal basis of Hermitian matrices
O_1..O_M on a faithful representation, with Tr(O_m O_m') = N delta_mm'.
Structure constants are stored under the physicists' bracket
[x, y] = i(xy - yx), which keeps them real over Hermitian elements.
Root data and rotations use the plain commutator xy - yx, under which the
su(2) relations [S+, S-] = Sz and [Sz, S+-] = +-S+- hold literally.

The basis is ordered Cartan-Weyl style: CSA generators H_1..H_R first,
then for each root l a pair of Hermitian partners (O_u, O_v) with

    O_u = E+ + E-,      O_v = i(E- - E+),

so the raising operator is recovered as E+ = (O_u + i O_v) / 2.  The root
data (CSA commutativity, the ad-eigenvector property of each E+, and the
coefficients mu, eta of Z = [E+, E-] and [Z, E+] = eta E+) is algebra data:
`_root_residuals` reads all of it from f by index gathers, so the defining
representation serves only states and verification.

`Algebra` is the one home of the quantities synthesis derives from the
algebra alone: the stacked CSA generators, a CSA eigenbasis with its
weights, the highest-weight state and its weights, the spectral gap of the
highest-weight Hamiltonian (read off that eigenbasis), and each root's
pi-reflection exponent.  Each is computed on first use and cached on the
instance, so it lives exactly as long as the algebra does.

A group operation exp{i(alpha E+ + alpha* E-)} is applied in closed form by
`RootImages.rotate`, in either representation (`CartanWeylData.defining`,
`Algebra.adjoint`): its generator's spectrum is |alpha| times that of
E+ + E-, cached per root, so the exponential is a short polynomial in the
generator, applied to the root's support block only and in real arithmetic
in the adjoint representation; no eigendecomposition.

The three algebra types are valid by construction: each constructor takes
only its inputs, derives every field, and raises a typed error for each
invariant, checked once, where the object is made.  `AlgebraBasis` checks
the matrices (shape, finiteness, Hermiticity, norms, one Gram product after
scaling), closure and the Killing form; `CartanWeylData` the labels and, by
one `_root_residuals` call, the root data; `Algebra` each rotation's
conditioning.  `validate_algebra` reads the residuals they cached.  What
follows from these is not re-checked: once closure holds for linearly
independent O_k, f obeys the Jacobi identity (matrix commutators do), so
the adjoint images are a bracket homomorphism; f[m, n, k] =
Tr(i[O_m, O_n] O_k) / N is antisymmetric under any swap of indices, so
each root's mu . lam = eta; exp(ad X) = Ad(exp X) (Hall, Lie Groups, Lie
Algebras, and Representations, 3.3); and each closed-form rotation is exact
interpolation on its generator's whole spectrum, with rounding growth
bounded by MAX_NODE_AMPLIFICATION.  Traces of products of Hermitian
matrices are real, so the Gram matrix and f keep their real parts.

Monomial bases take a faster path to the same f and closure residual.  Both
come from one pass over each row m of brackets [O_m, O_n]: the row gives
f[m], and then, from the same brackets, the closure residual of the pairs
n > m, so each bracket is formed once per assembly.  When no row of any
basis element holds more than one nonzero (Pauli strings, Gell-Mann
matrices, the Majorana quadratics of so(2n)), `_monomial_brackets` reads
each generator as one (column, value) per row: a bracket is an index
gather in O(d), not a dense O(d^3) product, and the residual is an exact
scatter of the bracket minus its expansion.  The choice is made from the
basis alone (`_is_monomial`).  The dense BLAS kernel `_dense_brackets` serves every
other basis and is the monomial kernel's test oracle.
"""

from dataclasses import InitVar, dataclass, field
from functools import cached_property
import hashlib
import math
import numbers
import operator

import numpy as np

from .errors import (
    BasisNotClosed,
    CsaNotAbelian,
    GramNotDiagonal,
    InvalidAlgebraSpec,
    KillingFormDegenerate,
    LinearlyDependentBasis,
    NonFiniteGate,
    NonHermitianInput,
    NotUnique,
    RootIndexOutOfRange,
    RootPairNotEigenvector,
    RootSpectrumIllConditioned,
    ZeroGap,
    ZeroRootBracket,
    is_integer,
)

# Structural tolerances (double precision, rep_dim <= 64).
HERMITICITY_TOL = 1e-12
ORTHOGONALITY_TOL = 1e-10
CLOSURE_TOL = 1e-8
KILLING_COND_TOL = 1e-8
CSA_COMMUTE_TOL = 1e-12
EIGENVECTOR_TOL = 1e-10
KERNEL_TOL = 1e-10
WEIGHT_TOL = 1e-8
# Closed-form rotations: relative gap merging eigenvalues into one node, and
# the most rounding growth allowed (about 1e-10 absolute in double precision).
NODE_TOL = 1e-8
MAX_NODE_AMPLIFICATION = 1e4


def trace_gram(a, b):
    """G[m, n] = Tr(a[m] b[n]) for stacks of square matrices, as one BLAS product."""
    size = a.shape[-1] * a.shape[-1]  # Tr(x y) = vec(x) . vec(y^T)
    return a.reshape(len(a), size) @ np.transpose(b, (0, 2, 1)).reshape(len(b), size).T


def hermiticity_residual(mats):
    """Per matrix of a finite stack: the Hermiticity residual max|A - A^dag|
    and its tolerance HERMITICITY_TOL (1 + max|entry|)."""
    resid = np.abs(mats - np.conj(np.swapaxes(mats, -1, -2))).max(axis=(-2, -1))
    return resid, HERMITICITY_TOL * (1.0 + np.abs(mats).max(axis=(-2, -1)))


def check_root_index(root_index, num_roots):
    """Raise RootIndexOutOfRange unless root_index is an integer (`is_integer`)
    with 0 <= root_index < num_roots."""
    if not is_integer(root_index) or not 0 <= root_index < num_roots:
        raise RootIndexOutOfRange(f"root index {root_index} is not in 0..{num_roots - 1}")


def _freeze(arr, dtype=None):
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class AlgebraBasis:
    """Orthogonal Hermitian basis with structure constants, built from raw matrices
    by `AlgebraBasis(raw_basis, target_N=None)` (see `orthonormalize_basis`).

    Attributes
    ----------
    dim_M, rep_dim : int
        Algebra dimension M and that of the faithful representation.
    basis : ndarray, shape (M, rep_dim, rep_dim)
        Hermitian basis matrices with Tr(O_m O_m') = normalization_N * delta.
    normalization_N : float
        Common trace norm of the basis elements.
    structure_constants : ndarray, shape (M, M, M)
        Real tensor f with i[O_m, O_m'] = sum_k f[m, m', k] O_k.
    hermiticity, orthogonality, closure
        The checks' figures: (largest residual, tolerance) of Hermiticity on
        the raw matrices; max |Tr(O_m O_m') - N delta|; (worst relative
        residual, (m, m')) of [O_m, O_m'] = sum_k f[m, m', k] O_k.
    """

    raw_basis: InitVar
    target_N: InitVar = None
    dim_M: int = field(init=False)
    rep_dim: int = field(init=False)
    basis: np.ndarray = field(init=False)
    normalization_N: float = field(init=False)
    structure_constants: np.ndarray = field(init=False)
    hermiticity: tuple = field(init=False)
    orthogonality: float = field(init=False)
    closure: tuple = field(init=False)

    def __post_init__(self, raw_basis, target_N):
        try:
            mats = np.array([np.asarray(m, dtype=complex) for m in raw_basis])
        except (TypeError, ValueError) as exc:
            raise InvalidAlgebraSpec(f"basis entries are not numeric matrices ({exc})") from exc
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise InvalidAlgebraSpec("basis must be a sequence of square matrices of equal size")
        if not np.isfinite(mats).all():
            raise InvalidAlgebraSpec("basis entries must be finite")
        if target_N is not None and (isinstance(target_N, bool)
                                     or not isinstance(target_N, numbers.Real)
                                     or not 0 < target_N < math.inf):
            raise InvalidAlgebraSpec(f"target_N must be finite and positive, got {target_N!r}")

        resid, tol = hermiticity_residual(mats)
        hermitian = resid <= tol
        if not hermitian.all():
            raise NonHermitianInput(f"basis element {int(np.argmin(hermitian))} is not Hermitian")

        # Summed entrywise rather than read off the BLAS Gram, so the scale
        # factors (hence the basis and every artifact) stay bit-stable.  An
        # element is refused on its own trace norm alone: zero, or too small
        # or too large to rescale to N, each of which leaves a factor that is
        # 0, infinite or NaN.
        diag = np.einsum("mij,mji->m", mats, mats).real
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            if target_N is not None:
                norm = float(target_N)
            elif np.allclose(diag, diag[0], rtol=ORTHOGONALITY_TOL, atol=0.0):
                norm = float(diag.mean())
            else:
                norm = float(mats.shape[1])
            factors = np.sqrt(norm / diag)
        scalable = (0.0 < factors) & (factors < math.inf)
        if not scalable.all():
            raise LinearlyDependentBasis(
                f"basis element {int(np.argmin(scalable))} has zero trace norm, or one that "
                "cannot be rescaled in double precision")
        mats = mats * factors[:, None, None]

        ortho = np.abs(trace_gram(mats, mats).real - norm * np.eye(len(mats))).max()
        if not ortho <= ORTHOGONALITY_TOL * norm:
            raise GramNotDiagonal(
                f"basis is not trace-orthogonal (worst relative overlap {ortho / norm:.2e}); "
                "only rescaling is supported"
            )

        f, closure = (_monomial_brackets(mats, norm) if _is_monomial(mats)
                      else _dense_brackets(mats, norm))
        vars(self).update(  # frozen: derived fields go straight to the instance dict
            dim_M=len(mats), rep_dim=mats.shape[1], basis=_freeze(mats), normalization_N=norm,
            structure_constants=_freeze(f), hermiticity=(float(resid.max()), float(tol.max())),
            orthogonality=float(ortho), closure=closure)
        residual, (m, n) = closure
        if not residual <= CLOSURE_TOL:
            raise BasisNotClosed(f"[O_{m}, O_{n}] leaves the basis span (residual {residual:.2e})")
        if not self.killing_conditioning > KILLING_COND_TOL:
            raise KillingFormDegenerate(
                "Killing form is singular; the basis does not span a semisimple algebra"
            )

    @cached_property
    def observable_norms(self):
        """Spectral norms of the basis elements (max |eigenvalue| each)."""
        return _freeze([np.abs(np.linalg.eigvalsh(o)).max() for o in self.basis])

    @cached_property
    def measurement_basis(self):
        """Projective measurements of the basis observables, by one batched `eigh` on
        the first sampled request: V^dag per observable, its distinct outcomes, the
        size of every eigenspace of all in turn, and per observable its outcome count
        and their running total.  A run of eigenvalues within 1e-10 max(1, max|e|) of
        its first is one outcome, their mean, and its Born weight is pooled, so no
        outcome or probability hangs on an eigenvector choice.  `observable_norms`
        keeps its own `eigvalsh`, whose bits set the budget."""
        evals, evecs = np.linalg.eigh(self.basis)
        outcomes, sizes = [], []
        for spectrum in evals:
            scale = max(1.0, float(np.abs(spectrum).max()))
            means, idx = [], 0
            while idx < spectrum.size:
                stop = idx + 1
                while stop < spectrum.size and spectrum[stop] - spectrum[idx] <= 1e-10 * scale:
                    stop += 1
                means.append(float(spectrum[idx:stop].mean()))
                sizes.append(stop - idx)
                idx = stop
            outcomes.append(_freeze(means))
        vh = np.swapaxes(evecs, -1, -2)
        np.conj(vh, out=vh).setflags(write=False)  # in place: no second M d^2 array
        counts = np.array([o.size for o in outcomes])
        return vh, tuple(outcomes), _freeze(sizes), _freeze(counts), _freeze(np.cumsum(counts))

    @cached_property
    def support(self):
        """For `lqc.adjoint_action_of`: the flat indices S of the N^2 entries
        some O_m is nonzero on, those off S, the O_m on S as (M, 2|S|) real rows
        (re, im interleaved), and the span scale max(1, max_m ||O_m||_F)."""
        flat = self.basis.reshape(self.dim_M, -1)
        touched = flat.any(axis=0)
        on, off = np.flatnonzero(touched), np.flatnonzero(~touched)
        scale = max(1.0, float(np.linalg.norm(flat, axis=1).max()))
        return _freeze(on), _freeze(off), _freeze(np.take(flat, on, axis=1).view(float)), scale

    @cached_property
    def killing_form(self):
        """K[m, m'] = -sum_ab f[m, a, b] f[m', a, b]; nonsingular iff semisimple."""
        flat = self.structure_constants.reshape(self.dim_M, -1)
        return _freeze(-flat @ flat.T)

    @cached_property
    def killing_conditioning(self):
        """Smallest over largest singular value of the Killing form, 0 if it
        vanishes (f is finite once closure holds: the residual reads all of it)."""
        svals = np.linalg.svd(self.killing_form, compute_uv=False)
        return float(svals.min() / svals.max()) if svals.max() > 0.0 else 0.0

    def fingerprint(self):
        """Short content hash of the basis, for artifact cross-checks."""
        digest = hashlib.sha256(np.round(np.asarray(self.basis), 10).tobytes())
        return digest.hexdigest()[:12]


@dataclass(frozen=True, eq=False)
class RootTriple:
    """The su(2) data of one root: row `root_index` of `CartanWeylData`.

    Z = [E+, E-] = sum_r mu[r] H_r lies in the CSA, and [Z, E+] = eta E+ with
    eta = 2 |mu|^2 > 0.  The normalized operators Sz = Z/eta and
    S+- = E+-/sqrt(eta) obey [S+, S-] = Sz and [Sz, S+-] = +-S+- in any
    representation.
    """

    root_index: int
    mu: np.ndarray
    eta: float

    def __post_init__(self):
        object.__setattr__(self, "mu", _freeze(self.mu))


@dataclass(frozen=True, eq=False)
class RootImages:
    """Images of the root operators in one representation, and their rotations.

    `raising[l]` is the image of E+_l and `lowering[l]`, its conjugate
    transpose, that of E-_l.
    """

    raising: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "raising", _freeze(self.raising))

    @property
    def lowering(self):
        """The images of E-_l, the conjugate transposes of `raising`, formed per read."""
        return _freeze(np.conj(np.transpose(self.raising, (0, 2, 1))))

    @cached_property
    def spectra(self):
        """Per root, (scale, nodes, inverse, rows, cos_part, sin_part) for `rotate`.

        nodes are the distinct eigenvalues x_j of E+ + E-, shared by every
        e^{i phi} E+ + e^{-i phi} E- (its conjugate by exp(i phi Sz)); inverse
        inverts T[j, k] = T_k(x_j / scale), scale = max |x_j|, row k times (-i)^k.
        Chebyshev rather than monomial columns keep rounding growth small for
        many nodes.  rows is the support S (rows where E+ or E- is nonzero);
        cos_part, sin_part are i(E+ + E-) and E- - E+ on S x S, real where
        their imaginary parts are zero.  Raises RootSpectrumIllConditioned past
        MAX_NODE_AMPLIFICATION (spin j > 11 in one su(2) irrep).
        """
        spectra = []
        lowering = self.lowering
        sums = self.raising + lowering
        for l, evals in enumerate(np.linalg.eigvalsh(sums)):
            scale = float(max(-evals[0], evals[-1]))
            nodes = evals[np.concatenate(([True], np.diff(evals) > NODE_TOL * scale))]
            inverse = np.linalg.inv(np.polynomial.chebyshev.chebvander(nodes / scale,
                                                                       len(nodes) - 1))
            if not np.abs(inverse).sum(axis=1).max() <= MAX_NODE_AMPLIFICATION:
                raise RootSpectrumIllConditioned(
                    f"root {l}: {len(nodes)} distinct generator eigenvalues are too many "
                    "for a closed-form rotation in double precision")
            diff = lowering[l] - self.raising[l]
            rows = np.flatnonzero((sums[l] != 0).any(axis=1) | (diff != 0).any(axis=1))
            parts = 1j * sums[l][np.ix_(rows, rows)], diff[np.ix_(rows, rows)]
            if not any(part.imag.any() for part in parts):
                parts = tuple(part.real for part in parts)
            unit = (-1j) ** np.arange(len(nodes))[:, None]
            spectra.append((scale, *map(_freeze, (nodes, unit * inverse, rows, *parts))))
        return tuple(spectra)

    def rotate(self, root_index, alpha, x):
        """exp{i(alpha E+_l + alpha* E-_l)} @ x for l = root_index.

        Raises RootIndexOutOfRange for a bad index, and NonFiniteGate unless
        |alpha| times the largest node is finite; the test bounds |alpha| by
        |Re| + |Im|, which, unlike abs() of a huge Python complex, cannot overflow.

        For alpha = t e^{i phi} the generator is t N with N's eigenvalues the
        cached nodes, so exp(i t N) = sum_k c_k T_k(N / s), c = inverse @ e^{i t x}
        (interpolation on the spectrum; Higham, Functions of Matrices, 1.2).
        With B = i N / s, U_k = i^k T_k(N / s) obeys U_{k+1} = 2 B U_k + U_{k-1},
        so Clenshaw's recurrence applies sum_k c_k (-i)^k U_k with one product
        by B's support block per degree: O(|S|^2) for a vector, O(|S|^2 m) for
        m columns.  Rows outside S come back unchanged (p(0) = 1).  Since
        |c_k (-i)^k| = |c_k| and ||U_k|| = ||T_k(N / s)|| <= 1, rounding grows
        by at most MAX_NODE_AMPLIFICATION.  Where B is real (the adjoint
        representation), N's spectrum is symmetric and each c_k (-i)^k real,
        so the recurrence runs in float64 and a real x stays real.
        """
        check_root_index(root_index, len(self.raising))
        scale, nodes, inverse, rows, cos_part, sin_part = self.spectra[root_index]
        if not math.isfinite((abs(alpha.real) + abs(alpha.imag)) * scale):
            raise NonFiniteGate(f"exponent alpha = {alpha} overflows the rotation of root "
                                f"{root_index}")
        t = abs(alpha)
        phase = complex(alpha / t if t else 1.0) / scale
        gen = phase.real * cos_part + phase.imag * sin_part
        coeffs = inverse @ np.exp(1j * t * nodes)
        coeffs = coeffs if np.iscomplexobj(gen) else coeffs.real
        part = x[rows]
        out, prev = coeffs[-1] * part, 0.0
        for c in coeffs[-2:0:-1]:
            out, prev = 2.0 * (gen @ out) + prev + c * part, out
        result = x.astype(np.result_type(gen, coeffs, x))
        result[rows] = gen @ out + prev + coeffs[0] * part
        return result


@dataclass(frozen=True, eq=False)
class CartanWeylData:
    """Cartan-Weyl split of a basis, built by `CartanWeylData(basis, csa_indices,
    root_pairs)` (see `build_cartan_weyl`).

    `pair_map[l] = (u, v)` names the two basis indices housing E+ + E- and
    i(E- - E+) for root l; `defining` holds E+-_l on the defining
    representation (`raising_ops`, `lowering_ops`).  `mu_matrix[l, r]` are
    the coefficients of Z_l = [E+_l, E-_l] over H_r and `etas[l]` the
    eigenvalue of [Z_l, E+_l] = eta E+_l; `root_triples[l]` reads row l.
    `root_residuals` holds the worst CSA-commutator, eigenvector and span
    residuals.
    """

    basis: AlgebraBasis
    csa_indices: tuple
    root_pairs: InitVar
    rank_R: int = field(init=False)
    num_roots_L: int = field(init=False)
    pair_map: tuple = field(init=False)
    defining: RootImages = field(init=False)
    mu_matrix: np.ndarray = field(init=False)
    etas: np.ndarray = field(init=False)
    root_residuals: tuple = field(init=False)

    def __post_init__(self, root_pairs):
        basis = self.basis
        if not isinstance(basis, AlgebraBasis):
            raise InvalidAlgebraSpec("a Cartan-Weyl split needs an AlgebraBasis")
        def index(label):  # operator.index, but True must not stand for label 1
            return operator.index(None if isinstance(label, (bool, np.bool_)) else label)
        try:
            csa = tuple(map(index, self.csa_indices))
            pair_map = tuple((index(u), index(v)) for u, v in root_pairs)
        except (TypeError, ValueError):
            raise InvalidAlgebraSpec("csa_indices must be integers and root_pairs integer "
                                     "pairs") from None
        rank, num_roots = len(csa), len(pair_map)
        if rank == 0 or num_roots == 0 or 2 * num_roots + rank != basis.dim_M:
            raise InvalidAlgebraSpec(
                f"index bookkeeping is off: M={basis.dim_M} but R={rank}, L={num_roots}"
            )
        used = list(csa) + [i for p in pair_map for i in p]
        if sorted(used) != list(range(basis.dim_M)):
            raise InvalidAlgebraSpec("csa_indices and root_pairs must partition the basis indices")

        u, v = np.array(pair_map).T
        (commute, (r, s)), (eigen, (l, k)), (span, m), z = _root_residuals(
            basis.structure_constants, csa, u, v)
        if not commute <= CSA_COMMUTE_TOL:
            raise CsaNotAbelian(f"H_{r} and H_{s} do not commute (residual {commute:.2e})")
        if not eigen <= EIGENVECTOR_TOL:
            raise RootPairNotEigenvector(
                f"root {l} is not an ad-eigenvector of H_{k} (residual {eigen:.2e})")
        if not span <= EIGENVECTOR_TOL:
            raise ZeroRootBracket(f"[E+, E-] of root {m} vanishes or leaves the CSA span")
        mu = z[:, list(csa)]
        mats = basis.basis
        vars(self).update(
            csa_indices=csa, rank_R=rank, num_roots_L=num_roots, pair_map=pair_map,
            defining=RootImages((mats[u] + 1j * mats[v]) / 2.0), mu_matrix=_freeze(mu),
            etas=_freeze(2.0 * np.einsum("lr,lr->l", mu, mu)),
            root_residuals=(commute, eigen, span))

    @property
    def raising_ops(self):
        return self.defining.raising

    @property
    def lowering_ops(self):
        return self.defining.lowering

    @cached_property
    def root_triples(self):
        """Per root l, `RootTriple(l, mu_matrix[l], etas[l])`."""
        return tuple(RootTriple(l, self.mu_matrix[l], float(self.etas[l]))
                     for l in range(self.num_roots_L))

    @cached_property
    def pair_indices(self):
        """Partner-pair basis indices as two arrays (u, v), each of length L."""
        return _freeze(np.array(self.pair_map, dtype=int).T)


def orthonormalize_basis(raw_basis, target_N=None):
    """Rescale a Hermitian, trace-orthogonal set into an AlgebraBasis.

    Only per-element scaling is performed.  A non-diagonal Gram matrix is
    rejected rather than rotated, since rotating would scramble the caller's
    Cartan-Weyl labeling.

    Parameters
    ----------
    raw_basis : sequence of (d, d) arrays
        Hermitian, linearly independent, pairwise trace-orthogonal matrices.
    target_N : float, optional
        Desired Tr(O_m O_m).  When omitted, an already-uniform Gram diagonal
        is kept as-is; otherwise the elements are scaled to N = rep_dim.

    Returns
    -------
    AlgebraBasis
        With structure constants derived and semisimplicity verified.

    Raises, in this order: InvalidAlgebraSpec (shape, finiteness, target_N),
    NonHermitianInput, LinearlyDependentBasis (an element with zero trace
    norm, or one that cannot be rescaled to N), GramNotDiagonal,
    BasisNotClosed, KillingFormDegenerate.
    """
    return AlgebraBasis(raw_basis, target_N)


def _dense_brackets(mats, norm):
    """Structure constants f[m, n, k] = Tr(i[O_m, O_n] O_k) / N and the closure
    residual (worst relative residual, (m, n)) of a stack of matrices.

    One row m of brackets B_n = i[O_m, O_n] at a time, so peak memory stays at
    O(M d^2) rather than O(M^2 d^2): the row gives f[m], and the same B_n for
    n > m give ||B_n - sum_k f[m, n, k] O_k|| relative to max(1, ||O_m||
    ||O_n||) (Frobenius norms).  Pairs n < m are covered by antisymmetry of
    f, which holds by construction.  A NaN residual is returned as the worst,
    so it fails every `<=` tolerance test.
    """
    dim_m = len(mats)
    flat = mats.reshape(dim_m, -1)
    # Tr(B O_k) = vec(B) . vec(O_k^T) lets BLAS carry the trace contractions.
    flat_t = np.transpose(mats, (0, 2, 1)).reshape(dim_m, -1)
    norms = np.linalg.norm(flat, axis=1)
    f = np.empty((dim_m, dim_m, dim_m))
    resid = np.zeros((dim_m, dim_m))
    for m in range(dim_m):
        brackets = (1j * (mats[m] @ mats - mats @ mats[m])).reshape(dim_m, -1)
        f[m] = ((brackets @ flat_t.T) / norm).real
        resid[m, m + 1:] = np.linalg.norm(brackets[m + 1:] - f[m, m + 1:] @ flat, axis=1) \
            / np.maximum(1.0, norms[m] * norms[m + 1:])
    return f, _worst_pair(resid)


def _worst_pair(resid):
    """Largest entry (NaN first, as argmax does) and its index pair."""
    m, n = np.unravel_index(np.argmax(resid), resid.shape)
    return float(resid[m, n]), (int(m), int(n))


def _is_monomial(mats):
    """True when no row of any matrix in the stack holds more than one nonzero;
    assembly then uses `_monomial_brackets`."""
    return int(np.count_nonzero(mats, axis=2).max()) <= 1


def _monomial_brackets(mats, norm):
    """`_dense_brackets` for a stack with at most one nonzero per row, same
    definitions and result, in X_m = i O_m: f[m, n, k] = -Tr([X_m, X_n]
    X_k) / N and the closure residual of [X_m, X_n] = sum_k f[m, n, k] X_k,
    from one pass over the rows m.

    Row i of X_m holds vals[m, i] at column cols[m, i] (value 0 on an empty
    row); only these entries are kept, not the dense stack of X_m.  A
    product is an index gather, (X_a X_b)[i] = v X_b[j] for the entry
    (i, j, v) of X_a, so one bracket costs O(d) instead of O(d^3).
    Row m lists the entries (pair n, row, col, value) of every [X_m, X_n],
    the two products as separate entries (zero values included).  Each
    trace reads X_k[c, i] for an entry at (i, c) from a position -> (k,
    value) lookup, so only generators nonzero there are touched.  The
    entries with n > m, less the nonzero (or NaN) terms of their
    expansion, are then scattered into d x d bins for the residual.
    Temporaries stay at O(M d) entries plus one row of bins.
    """
    cols = np.argmax(mats != 0, axis=2)
    vals = 1j * np.take_along_axis(mats, cols[..., None], axis=2)[..., 0]
    dim_m, dim = vals.shape
    gen, row = np.nonzero(vals)  # every entry, ordered by generator
    col, val = cols[gen, row], vals[gen, row]
    start = np.searchsorted(gen, np.arange(dim_m + 1))
    pos = row * dim + col
    order = np.argsort(pos, kind="stable")
    owner, weight = gen[order], val[order]
    counts = np.bincount(pos, minlength=dim * dim)
    starts = np.cumsum(counts) - counts
    norms = np.sqrt(np.bincount(gen, np.abs(val) ** 2, dim_m))
    rows = np.arange(dim)
    f = np.empty((dim_m, dim_m, dim_m))
    resid = np.zeros((dim_m, dim_m))
    for m in range(dim_m):
        mine = slice(start[m], start[m + 1])
        # X_m X_n: entry (i, j, v) of X_m times row j of X_n, for every n;
        # then -X_n X_m: entry (i, j, v) of X_n times row j of X_m.
        col_mn = cols[:, col[mine]]  # (M, E_m)
        pair = np.concatenate([np.repeat(np.arange(dim_m), col_mn.shape[1]), gen])
        rows_b = np.concatenate([np.tile(row[mine], dim_m), row])
        cols_b = np.concatenate([col_mn.ravel(), cols[m][col]])
        vals_b = np.concatenate([(vals[:, col[mine]] * val[mine]).ravel(),
                                 -val * vals[m][col]])
        look = cols_b * dim + rows_b  # Tr(B X_k) pairs B[i, c] with X_k[c, i]
        # One term per (entry, generator nonzero at the looked-up position).
        cnt = np.where(vals_b != 0, counts[look], 0)
        src = np.arange(cnt.sum()) + np.repeat(starts[look] - np.cumsum(cnt) + cnt, cnt)
        f[m] = -np.bincount(np.repeat(pair * dim_m, cnt) + owner[src],
                            (np.repeat(vals_b, cnt) * weight[src]).real,
                            dim_m * dim_m).reshape(dim_m, dim_m) / norm
        later = pair > m
        j, k = np.nonzero(f[m, m + 1:])
        keys = np.concatenate([((pair[later] - m - 1) * dim + rows_b[later]) * dim
                               + cols_b[later],
                               ((j[:, None] * dim + rows) * dim + cols[k]).ravel()])
        values = np.concatenate([vals_b[later],
                                 (-f[m, m + 1 + j, k][:, None] * vals[k]).ravel()])
        bins = [np.bincount(keys, part, (dim_m - m - 1) * dim * dim).reshape(-1, dim * dim)
                for part in (values.real, values.imag)]
        sq = sum(np.einsum("pi,pi->p", part, part) for part in bins)
        resid[m, m + 1:] = np.sqrt(sq) / np.maximum(1.0, norms[m] * norms[m + 1:])
    return f, _worst_pair(resid)


def _adjoint_from_constants(f, cw):
    """Adjoint images of E+_l, from the images -i bar(O_m) of each pair (u, v).

    The image of O_m is the M x M Hermitian matrix -i bar(O_m), the plain
    commutator [O_m, .] on basis coefficients, with bar(O_m)[k, m'] =
    f[m, m', k] the real matrix of ad(O_m); only the root images are kept.
    They obey the stored-bracket relations because f obeys the Jacobi
    identity once closure holds.  bar(O_m) is antisymmetric, and its computed
    antisymmetric part (f's transpose bit for bit where f is) makes each image
    exactly i times a real one, so `RootImages.rotate` runs in real arithmetic.
    """
    adj_u, adj_v = ((np.transpose(f[i], (0, 2, 1)) - f[i]) * -0.5j for i in cw.pair_indices)
    return RootImages((adj_u + 1j * adj_v) / 2.0)


def _root_residuals(f, csa, u, v):
    """Cartan-Weyl invariants of a labeling, read from the structure constants.

    Under the stored bracket the plain commutator of basis elements is
    [O_m, O_n] = -i sum_k f[m, n, k] O_k, so with E+_l = (O_u + i O_v)/2
    (root-space decomposition; Humphreys, Introduction to Lie Algebras, 8):
      - the CSA is abelian iff f[r, s, :] = 0 for all r, s in csa;
      - [H_r, E+_l] = lam[l, r] E+_l iff f[r, u, :] = -lam e_v and
        f[r, v, :] = lam e_u, with lam[l, r] = f[r, v, u];
      - Z_l = [E+_l, E-_l] = -f[u, v, :]/2, so Z_l lies in the CSA iff
        f[u, v, k] = 0 for every non-CSA k, and then mu[l, r] = -f[u, v, r]/2.
    Index gathers over csa and the pairs only: O(R L M) work, no product.

    Returns (commute, (r, s)), (eigen, (l, r)), (span, l), z: the worst
    residual of each identity with where it occurs (NaN counts as worst) and
    Z's coefficients z (L, M).  commute and eigen are relative
    to 1 + max |f|; span is the off-CSA part of Z_l relative to |Z_l|, and
    infinite when Z_l vanishes.
    """
    csa = list(csa)
    scale = 1.0 + np.abs(f).max()
    commute = np.abs(f[np.ix_(csa, csa)]).max(axis=2) / scale
    f_u, f_v = f[np.ix_(csa, u)], f[np.ix_(csa, v)]  # (R, L, M)
    roots = np.arange(len(u))
    lam = f_v[:, roots, u]
    f_u[:, roots, v] += lam
    f_v[:, roots, u] -= lam
    eigen = np.maximum(np.abs(f_u).max(axis=2), np.abs(f_v).max(axis=2)).T / scale
    z = -f[u, v] / 2.0
    z_norm = np.linalg.norm(z, axis=1)
    off = np.linalg.norm(np.delete(z, csa, axis=1), axis=1)
    span = np.divide(off, z_norm, out=np.full(len(z), np.inf), where=z_norm > 0.0)
    worst = int(np.argmax(span))
    return _worst_pair(commute), _worst_pair(eigen), (float(span[worst]), worst), z


def build_cartan_weyl(basis, csa_indices, root_pairs):
    """Assemble and validate the Cartan-Weyl split of an orthogonal basis.

    The root data (CSA commutativity, root eigenvectors, mu and eta) is read
    from the structure constants by `_root_residuals`; the defining
    representation only supplies E+- for states.  eta = 2 |mu|^2 follows from
    eta N/2 = Tr(Z [E+, E-]) = ||Z||_F^2 = N |mu|^2.

    Parameters
    ----------
    basis : AlgebraBasis
    csa_indices : sequence of int
        Positions of the mutually commuting H_1..H_R in the basis.
    root_pairs : sequence of (int, int)
        Per root, the basis indices (u, v) with O_u = E+ + E- and
        O_v = i(E- - E+); equivalently E+ = (O_u + i O_v)/2.

    Returns
    -------
    CartanWeylData

    Raises
    ------
    InvalidAlgebraSpec, CsaNotAbelian, RootPairNotEigenvector, ZeroRootBracket
    """
    return CartanWeylData(basis, csa_indices, root_pairs)


def validate_algebra(basis, cw=None):
    """The residuals construction raised on, as (check, residual, tolerance) rows.

    Read from the figures the basis cached (Hermiticity of the raw matrices,
    trace orthogonality, closure) and, when given, those of its Cartan-Weyl
    split (CSA commutativity, the root eigenvectors, [E+, E-] in the CSA);
    nothing is recomputed.  InvalidAlgebraSpec if `cw` was built on another
    basis.
    """
    if cw is not None and cw.basis is not basis:
        raise InvalidAlgebraSpec("the Cartan-Weyl split was built on another basis")
    rows = [("basis hermiticity", *basis.hermiticity),
            ("trace orthogonality Tr(O_m O_m') = N delta", basis.orthogonality,
             ORTHOGONALITY_TOL * basis.normalization_N),
            ("brackets close over the basis", basis.closure[0], CLOSURE_TOL)]
    if cw is not None:
        commute, eigen, span = cw.root_residuals
        rows += [("CSA generators commute", commute, CSA_COMMUTE_TOL),
                 ("root pairs are CSA ad-eigenvectors", eigen, EIGENVECTOR_TOL),
                 ("[E+, E-] lies in the CSA", span, EIGENVECTOR_TOL)]
    return rows


# ---------------------------------------------------------------------------
# Bundled algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Algebra:
    """A Cartan-Weyl split with its basis and adjoint root images; building one
    forces both representations' rotation spectra (RootSpectrumIllConditioned)."""

    cartan_weyl: CartanWeylData
    name: str = "custom"

    def __post_init__(self):
        if not isinstance(self.cartan_weyl, CartanWeylData):
            raise InvalidAlgebraSpec("an Algebra needs a CartanWeylData")
        _ = self.cartan_weyl.defining.spectra, self.adjoint.spectra

    @property
    def basis(self):
        return self.cartan_weyl.basis

    @cached_property
    def adjoint(self):
        """The adjoint root images (`_adjoint_from_constants`)."""
        return _adjoint_from_constants(self.basis.structure_constants, self.cartan_weyl)

    @property
    def dim(self):
        return self.basis.dim_M

    @property
    def rep_dim(self):
        return self.basis.rep_dim

    @property
    def norm(self):
        return self.basis.normalization_N

    @property
    def max_observable_norm(self):
        """||O|| = max_m ||O_m|| (spectral norm)."""
        return float(self.basis.observable_norms.max())

    def label(self):
        """Name for artifact files: the catalog name, or a content hash."""
        if self.name != "custom":
            return self.name
        return "custom-" + self.basis.fingerprint()

    @cached_property
    def csa_ops(self):
        """Stacked CSA generators H_1..H_R on the defining representation."""
        return _freeze(self.basis.basis[list(self.cartan_weyl.csa_indices)])

    @cached_property
    def weight_tols(self):
        """Per CSA generator H_r, `vector_weights`' tolerance WEIGHT_TOL max(1, max|H_r|)."""
        return tuple(WEIGHT_TOL * max(1.0, float(np.abs(h).max())) for h in self.csa_ops)

    @cached_property
    def highest_weight(self):
        """The highest-weight state and its CSA weights, as (state, w(H_r)).

        The state is the unit vector annihilated by every raising operator and
        a simultaneous CSA eigenvector.  On representations with more than one
        irreducible component the joint kernel contains one candidate per
        component; candidates are refined into weight vectors and the one with
        the lexicographically largest weight vector is returned (the tie-break
        makes the choice deterministic).  Every candidate v is dominant, so
        any choice is algebraically consistent: with E+_l v = 0 and Z_l in the
        CSA span (checked at assembly), mu_l . w / eta_l = <v|[S+, S-]|v> =
        ||S- v||^2 >= 0 (Humphreys, Introduction to Lie Algebras, 7.2).

        Raises
        ------
        NotUnique
            If two candidates carry identical weights (e.g. repeated
            irreducible blocks).
        """
        cw = self.cartan_weyl
        raising = np.asarray(cw.raising_ops)
        kernel_op = np.einsum("lji,ljk->ik", raising.conj(), raising)
        evals, evecs = np.linalg.eigh(kernel_op)
        scale = max(1.0, float(evals.max()))
        kernel = evecs[:, evals <= KERNEL_TOL * scale]
        if kernel.shape[1] == 0:
            raise NotUnique("no state is annihilated by all raising operators")

        candidates = sorted(_weight_vectors(kernel, self),
                            key=lambda item: tuple(-item[1]))
        if len(candidates) > 1 and np.allclose(candidates[0][1], candidates[1][1],
                                               atol=WEIGHT_TOL):
            raise NotUnique(
                f"{len(candidates)} annihilated weight vectors share the top weight; "
                "the representation contains repeated components"
            )
        state, weights = candidates[0]

        for l, e_plus in enumerate(raising):
            resid = np.linalg.norm(e_plus @ state)
            if resid > KERNEL_TOL * max(1.0, np.linalg.norm(e_plus)):
                raise NotUnique(
                    f"selected state is not annihilated by E+_{l} (residual {resid:.2e})")
        return _freeze(state), _freeze(weights)

    @cached_property
    def spectral_gap(self):
        """Gap between the two largest eigenvalues of F_hw = sum_r w(H_r) H_r."""
        _, gap, scale = self.csa_top(self.highest_weight[1])
        if gap <= 1e-12 * scale:
            raise ZeroGap("highest-weight Hamiltonian has a degenerate top eigenvalue")
        return gap

    def csa_top(self, gamma):
        """The top of F = sum_r gamma_r H_r, as (i, gap, scale): F's top eigenvector
        is weight_basis column i, gap its distance to the second eigenvalue,
        and scale max(|eigenvalue|, 1e-300).  F is diagonal in `weight_basis`,
        so its eigenvalues are the weight table times gamma: no
        eigendecomposition on the defining representation."""
        evals = self.weight_basis[1] @ gamma
        order = np.argsort(evals)
        low, top = evals[order[0]], evals[order[-1]]
        return int(order[-1]), float(top - evals[order[-2]]), max(abs(low), abs(top), 1e-300)

    @cached_property
    def weight_basis(self):
        """(vectors, weights): vectors[:, i] is a unit eigenvector of every H_r
        with eigenvalue weights[i, r], so sum_r gamma_r H_r is diagonal there."""
        pairs = _weight_vectors(np.eye(self.rep_dim, dtype=complex), self)
        return (_freeze(np.array([vec for vec, _ in pairs]).T),
                _freeze([w for _, w in pairs]))

    @cached_property
    def reflection_alphas(self):
        """Per root, the exponent alpha = pi / sqrt(2 eta) of a rotation mapping Sz -> -Sz.

        Every phase of alpha gives a pi rotation about an equatorial axis of
        the root's su(2), which maps Sz -> -Sz once the su(2) relations hold
        (checked at assembly); the real exponent is used.
        """
        return tuple(np.pi / np.sqrt(2.0 * self.cartan_weyl.etas))


def _weight_vectors(subspace, algebra):
    """Diagonalize the CSA action within a subspace; return (vector, weights) pairs."""
    k = subspace.shape[1]
    if k == 1:
        vecs = [subspace[:, 0]]
    else:
        # A fixed incommensurate combination splits distinct weights at once.
        coeffs = 1.0 / np.sqrt(np.arange(2, len(algebra.csa_ops) + 2, dtype=float))
        combo = np.einsum("r,rij->ij", coeffs, algebra.csa_ops)
        sub = subspace.conj().T @ combo @ subspace
        _, v = np.linalg.eigh((sub + sub.conj().T) / 2.0)
        vecs = [subspace @ v[:, i] for i in range(k)]
    out = []
    for vec in vecs:
        vec = vec / np.linalg.norm(vec)
        weights = vector_weights(vec, algebra)
        if weights is None:
            raise NotUnique("subspace does not split into CSA weight vectors")
        out.append((vec, weights))
    return out


def vector_weights(vec, algebra):
    """The weights <v|H_r|v> of a unit vector, or None unless it is an eigenvector
    of every H_r to `Algebra.weight_tols` (a non-finite vector never is)."""
    weights = np.empty(len(algebra.csa_ops))
    for r, (h, tol) in enumerate(zip(algebra.csa_ops, algebra.weight_tols)):
        hv = h @ vec
        w = np.real(np.vdot(vec, hv))
        if not np.linalg.norm(hv - w * vec) <= tol:
            return None
        weights[r] = w
    return weights


def assemble_algebra(basis, csa_indices, root_pairs, name="custom"):
    """Build an Algebra from a basis plus Cartan-Weyl labeling.

    Raises what `build_cartan_weyl` and `Algebra` raise; the basis passed its
    own checks when it was made, so no validation pass runs here.
    """
    return Algebra(build_cartan_weyl(basis, csa_indices, root_pairs), name)
