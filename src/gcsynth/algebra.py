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
generator; no eigendecomposition.

Each structural invariant has one function, computed once per assembly
and only where some input can break it.  Closure and the Killing form are
cached on `AlgebraBasis`; construction raises a typed error from them
(`orthonormalize_basis`; `build_cartan_weyl` via `_root_residuals`),
`validate_algebra` records them with the checks a hand-built basis or split
can still fail, and `assemble_algebra` raises `ValidationFailed` if any
fails.  What follows from these is not re-checked: once closure holds for
linearly independent O_k, f obeys the Jacobi identity (matrix commutators
do), so the adjoint images are a bracket homomorphism; exp(ad X) =
Ad(exp X) (Hall, Lie Groups, Lie Algebras, and Representations, 3.3); and
each closed-form rotation is exact interpolation on its generator's whole
spectrum, with rounding growth bounded by MAX_NODE_AMPLIFICATION.  Traces
of products of Hermitian matrices are real, so the Gram matrix and f keep
their real parts with no test of the imaginary ones.

Row-sparse bases take a faster path to the same checks.  When no row of any
basis element holds more than ROW_SPARSE_MAX_NNZ nonzeros (monomial bases:
Pauli strings, Gell-Mann matrices, the Majorana quadratics of so(2n)), the
structure constants and the closure residual come from `_RowSparse`, which
keeps each generator as per-row (column, value) arrays: a bracket is an
index gather in O(d), not a dense O(d^3) product, and the residual is an
exact scatter of the bracket minus its expansion.  The choice is made from
the basis alone.  The dense BLAS routines (`_structure_constants`,
`_bracket_residual`) serve every other basis and are the kernel's test
oracle.
"""

from dataclasses import dataclass, field
from functools import cached_property
import hashlib

import numpy as np

from .errors import (
    BasisNotClosed,
    CsaNotAbelian,
    GramNotDiagonal,
    InvalidAlgebraSpec,
    KillingFormDegenerate,
    LinearlyDependentBasis,
    NonHermitianInput,
    NotUnique,
    RootIndexOutOfRange,
    RootPairNotEigenvector,
    RootSpectrumIllConditioned,
    ValidationFailed,
    ZeroGap,
    ZeroRootBracket,
)

# Structural tolerances (double precision, rep_dim <= 64).
HERMITICITY_TOL = 1e-12
ORTHOGONALITY_TOL = 1e-10
ANTISYMMETRY_TOL = 1e-10
CLOSURE_TOL = 1e-8
KILLING_COND_TOL = 1e-8
CSA_COMMUTE_TOL = 1e-12
EIGENVECTOR_TOL = 1e-10
SU2_TOL = 1e-10
KERNEL_TOL = 1e-10
WEIGHT_TOL = 1e-8
# Closed-form rotations: relative gap merging eigenvalues into one node, and
# the most rounding growth allowed (about 1e-10 absolute in double precision).
NODE_TOL = 1e-8
MAX_NODE_AMPLIFICATION = 1e4
# Assembly uses the row-sparse kernel when no row of any basis element holds
# more nonzeros than this (1: monomial bases).  Spin-j su(2) beyond j = 1/2
# has tridiagonal Jx and few rows, where dense BLAS is as fast.
ROW_SPARSE_MAX_NNZ = 1


def trace_gram(a, b):
    """G[m, n] = Tr(a[m] b[n]) for stacks of square matrices, as one BLAS product."""
    size = a.shape[-1] * a.shape[-1]  # Tr(x y) = vec(x) . vec(y^T)
    return a.reshape(len(a), size) @ np.transpose(b, (0, 2, 1)).reshape(len(b), size).T


def is_hermitian(mats):
    """Per matrix of a stack, or for one matrix: whether its Hermiticity
    residual max|A - A^dag| is within HERMITICITY_TOL (1 + max|entry|).  A NaN
    or infinite entry makes the residual NaN, which no tolerance admits."""
    mats = np.asarray(mats)
    with np.errstate(invalid="ignore"):  # inf - inf
        resid = np.abs(mats - np.conj(np.swapaxes(mats, -1, -2))).max(axis=(-2, -1))
    return resid <= HERMITICITY_TOL * (1.0 + np.abs(mats).max(axis=(-2, -1)))


def check_root_index(root_index, num_roots):
    """Raise RootIndexOutOfRange unless 0 <= root_index < num_roots."""
    if not 0 <= root_index < num_roots:
        raise RootIndexOutOfRange(f"root index {root_index} is not in 0..{num_roots - 1}")


def _freeze(arr, dtype=None):
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class AlgebraBasis:
    """Orthogonal Hermitian basis with structure constants.

    Attributes
    ----------
    dim_M : int
        Algebra dimension M.
    rep_dim : int
        Dimension of the faithful representation.
    basis : ndarray, shape (M, rep_dim, rep_dim)
        Hermitian basis matrices with Tr(O_m O_m') = normalization_N * delta.
    normalization_N : float
        Common trace norm of the basis elements.
    structure_constants : ndarray, shape (M, M, M)
        Real tensor f with i[O_m, O_m'] = sum_k f[m, m', k] O_k.
    """

    dim_M: int
    rep_dim: int
    basis: np.ndarray
    normalization_N: float
    structure_constants: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "basis", _freeze(self.basis))
        object.__setattr__(self, "structure_constants", _freeze(self.structure_constants))

    @cached_property
    def observable_norms(self):
        """Spectral norms of the basis elements (max |eigenvalue| each)."""
        return _freeze([np.abs(np.linalg.eigvalsh(o)).max() for o in self.basis])

    @cached_property
    def row_sparse(self):
        """True when assembly takes the row-sparse kernel (see `_is_row_sparse`)."""
        return _is_row_sparse(self.basis)

    @cached_property
    def closure(self):
        """(worst relative residual, (m, m')) of [O_m, O_m'] = sum_k f[m, m', k] O_k.

        Plain commutators of i O_m obey the stored-bracket relations, so this
        is the bracket residual of i O_m, by the row-sparse kernel when the
        basis takes it (`row_sparse`).
        """
        gens = 1j * self.basis
        if self.row_sparse:
            return _RowSparse(gens).residual(self.structure_constants)
        return _bracket_residual(gens, self.structure_constants)

    @cached_property
    def killing_form(self):
        """K[m, m'] = -sum_ab f[m, a, b] f[m', a, b]; nonsingular iff semisimple."""
        flat = self.structure_constants.reshape(self.dim_M, -1)
        return _freeze(-flat @ flat.T)

    @cached_property
    def killing_conditioning(self):
        """Smallest over largest singular value of the Killing form (0 if it
        vanishes, NaN if it is not finite, failing every `> tol` test)."""
        if not np.isfinite(self.killing_form).all():
            return float("nan")
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

    @cached_property
    def lowering(self):
        """The images of E-_l, the conjugate transposes of `raising`."""
        return _freeze(np.conj(np.transpose(self.raising, (0, 2, 1))))

    @cached_property
    def spectra(self):
        """Per root, (nodes, scale, inverse) for `rotate`.

        nodes are the distinct eigenvalues x_j of E+ + E-, shared by every
        e^{i phi} E+ + e^{-i phi} E- (its conjugate by exp(i phi Sz)); inverse
        inverts T[j, k] = T_k(x_j / scale), scale = max |x_j|.  Chebyshev rather
        than monomial columns keep rounding growth small for many nodes.  Raises
        RootSpectrumIllConditioned past MAX_NODE_AMPLIFICATION (spin j > 11 in
        one su(2) irrep).
        """
        spectra = []
        for l, evals in enumerate(np.linalg.eigvalsh(self.raising + self.lowering)):
            scale = float(max(-evals[0], evals[-1]))
            nodes = evals[np.concatenate(([True], np.diff(evals) > NODE_TOL * scale))]
            inverse = np.linalg.inv(np.polynomial.chebyshev.chebvander(nodes / scale,
                                                                       len(nodes) - 1))
            if not np.abs(inverse).sum(axis=1).max() <= MAX_NODE_AMPLIFICATION:
                raise RootSpectrumIllConditioned(
                    f"root {l}: {len(nodes)} distinct generator eigenvalues are too many "
                    "for a closed-form rotation in double precision")
            spectra.append((_freeze(nodes), scale, _freeze(inverse)))
        return tuple(spectra)

    def rotate(self, root_index, alpha, x):
        """exp{i(alpha E+_l + alpha* E-_l)} @ x for l = root_index; RootIndexOutOfRange.

        For alpha = t e^{i phi} the generator is t N with N's eigenvalues the
        cached nodes, so exp(i t N) = sum_k c_k T_k(N / s), c = inverse @ e^{i t x}
        (interpolation on the spectrum; Higham, Functions of Matrices, 1.2),
        applied by Clenshaw's recurrence: one product with N / s per degree,
        O(d^2) each for a vector x of length d.
        """
        check_root_index(root_index, len(self.raising))
        nodes, scale, inverse = self.spectra[root_index]
        t = abs(alpha)
        phase = complex(alpha / t if t else 1.0) / scale
        gen = phase * self.raising[root_index] + phase.conjugate() * self.lowering[root_index]
        coeffs = inverse @ np.exp(1j * t * nodes)
        out, prev = coeffs[-1] * x, 0.0
        for c in coeffs[-2:0:-1]:
            out, prev = 2.0 * (gen @ out) - prev + c * x, out
        return gen @ out - prev + coeffs[0] * x


@dataclass(frozen=True, eq=False)
class CartanWeylData:
    """Cartan-Weyl split of an orthogonal basis.

    `pair_map[l] = (u, v)` names the two basis indices housing E+ + E- and
    i(E- - E+) for root l; `defining` holds E+-_l on the defining
    representation (`raising_ops`, `lowering_ops`).  `mu_matrix[l, r]` are
    the coefficients of Z_l = [E+_l, E-_l] over H_r and `etas[l]` the
    eigenvalue of [Z_l, E+_l] = eta E+_l; `root_triples[l]` reads row l.
    """

    rank_R: int
    num_roots_L: int
    csa_indices: tuple
    defining: RootImages
    pair_map: tuple
    mu_matrix: np.ndarray
    etas: np.ndarray

    def __post_init__(self):
        for name in ("mu_matrix", "etas"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        object.__setattr__(self, "csa_indices", tuple(self.csa_indices))
        object.__setattr__(self, "pair_map", tuple(tuple(p) for p in self.pair_map))

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
    """
    try:
        mats = np.array([np.asarray(m, dtype=complex) for m in raw_basis])
    except (TypeError, ValueError) as exc:
        raise InvalidAlgebraSpec(f"basis entries are not numeric matrices ({exc})") from exc
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise InvalidAlgebraSpec("basis must be a sequence of square matrices of equal size")
    if not np.isfinite(mats).all():
        raise InvalidAlgebraSpec("basis entries must be finite")
    dim_m, rep_dim = mats.shape[0], mats.shape[1]

    hermitian = is_hermitian(mats)
    if not hermitian.all():
        raise NonHermitianInput(f"basis element {int(np.argmin(hermitian))} is not Hermitian")

    gram = trace_gram(mats, mats).real
    # Summed entrywise rather than read off the BLAS Gram, so the scale
    # factors (hence the basis and every artifact) stay bit-stable.
    diag = np.einsum("mij,mji->m", mats, mats).real
    if diag.min() <= 1e-12 * max(1.0, diag.max()):
        raise LinearlyDependentBasis("a basis element has (numerically) zero trace norm")
    off = gram - np.diag(diag)
    limit = ORTHOGONALITY_TOL * np.sqrt(np.outer(diag, diag))
    if (np.abs(off) > np.maximum(limit, 1e-14)).any():
        worst = np.abs(off / np.sqrt(np.outer(diag, diag))).max()
        raise GramNotDiagonal(
            f"basis is not trace-orthogonal (worst relative overlap {worst:.2e}); "
            "only rescaling is supported"
        )

    if target_N is not None:
        norm = float(target_N)
        if not 0 < norm < np.inf:
            raise InvalidAlgebraSpec(f"target_N must be finite and positive, got {target_N}")
    elif np.allclose(diag, diag[0], rtol=ORTHOGONALITY_TOL, atol=0.0):
        norm = float(diag.mean())
    else:
        norm = float(rep_dim)
    mats = mats * np.sqrt(norm / diag)[:, None, None]

    if _is_row_sparse(mats):
        f = _RowSparse(1j * mats).structure_constants(norm)
    else:
        f = _structure_constants(mats, norm)
    basis = AlgebraBasis(dim_M=dim_m, rep_dim=rep_dim, basis=mats, normalization_N=norm,
                         structure_constants=f)
    residual, (m, n) = basis.closure
    if not residual <= CLOSURE_TOL:
        raise BasisNotClosed(f"[O_{m}, O_{n}] leaves the basis span (residual {residual:.2e})")
    if not basis.killing_conditioning > KILLING_COND_TOL:
        raise KillingFormDegenerate(
            "Killing form is singular; the basis does not span a semisimple algebra"
        )
    return basis


def _structure_constants(mats, norm):
    """f[m, m', k] = Tr([O_m, O_m'] O_k) / N under the i-commutator.

    Works one row of brackets at a time so peak memory stays at O(M d^2)
    rather than O(M^2 d^2).  Closure is checked by `AlgebraBasis.closure`.
    """
    dim_m, rep_dim = mats.shape[0], mats.shape[1]
    # Tr(B O_k) = vec(B) . vec(O_k^T) lets BLAS carry the trace contractions.
    flat_t = np.transpose(mats, (0, 2, 1)).reshape(dim_m, rep_dim * rep_dim)
    f = np.empty((dim_m, dim_m, dim_m))
    for m in range(dim_m):
        brackets = 1j * (mats[m] @ mats - mats @ mats[m])  # (M, d, d)
        f[m] = ((brackets.reshape(dim_m, rep_dim * rep_dim) @ flat_t.T) / norm).real
    return f


def _bracket_residual(gens, f):
    """Worst ||[X_m, X_n] - sum_k f[m, n, k] X_k|| over pairs m < n, and that pair.

    Plain commutators, one row of brackets at a time; each residual is in the
    Frobenius norm relative to max(1, ||X_m|| ||X_n||).  Pairs m >= n are
    covered by antisymmetry of f, which the report checks on its own.  A NaN
    residual is returned as the worst, so it fails every `<=` tolerance test.
    """
    dim_m = len(gens)
    flat = gens.reshape(dim_m, -1)
    norms = np.linalg.norm(flat, axis=1)
    resid = np.zeros((dim_m, dim_m))
    for m in range(dim_m - 1):
        rest = gens[m + 1:]
        brackets = (gens[m] @ rest).reshape(len(rest), -1)
        brackets -= (rest @ gens[m]).reshape(len(rest), -1) + f[m, m + 1:] @ flat
        resid[m, m + 1:] = np.linalg.norm(brackets, axis=1) \
            / np.maximum(1.0, norms[m] * norms[m + 1:])
    return _worst_pair(resid)


def _worst_pair(resid):
    """Largest entry (NaN first, as argmax does) and its index pair."""
    m, n = np.unravel_index(np.argmax(resid), resid.shape)
    return float(resid[m, n]), (int(m), int(n))


def _is_row_sparse(mats):
    """True when no row of any matrix in the stack holds more than
    ROW_SPARSE_MAX_NNZ nonzeros; assembly then uses `_RowSparse`."""
    return int(np.count_nonzero(mats, axis=2).max()) <= ROW_SPARSE_MAX_NNZ


class _RowSparse:
    """Stacked generators X_m (M, d, d) stored row by row as (column, value) arrays.

    Row i of X_m holds vals[m, i, t] at column cols[m, i, t], t < width,
    padded with zero values up to the densest row; (gen, row, col, val) lists
    every nonzero entry, ordered by generator.  Products are index gathers,
    (X_a X_b)[i] = sum over entries (i, j, v) of X_a of v X_b[j], so one
    bracket costs O(d width^2) instead of O(d^3).  Each method works one row
    m of brackets at a time: temporaries stay at O(M d width^2) entries plus
    one row of bins.
    """

    def __init__(self, gens):
        self.gen, self.row, self.col = np.nonzero(gens)
        self.val = gens[self.gen, self.row, self.col]
        self.start = np.searchsorted(self.gen, np.arange(len(gens) + 1))
        flat_row = self.gen * gens.shape[1] + self.row
        slot = np.arange(len(flat_row)) - np.searchsorted(flat_row, flat_row)
        shape = gens.shape[:2] + (int(slot.max(initial=0)) + 1,)
        self.cols = np.zeros(shape, dtype=int)
        self.vals = np.zeros(shape, dtype=gens.dtype)
        self.cols[self.gen, self.row, slot] = self.col
        self.vals[self.gen, self.row, slot] = self.val

    def _brackets(self, m, first):
        """Entries (pair, row, col, value) of [X_m, X_n] for n = first..M-1, pair
        n - first, as flat arrays; the two products are separate entries, to be
        summed by whoever scatters them (zero values included)."""
        mine = slice(self.start[m], self.start[m + 1])
        theirs = slice(self.start[first], None)
        # X_m X_n: entry (i, j, v) of X_m times row j of X_n, for every n.
        col_mn = self.cols[first:, self.col[mine]]  # (K, E_m, width)
        val_mn = self.vals[first:, self.col[mine]] * self.val[mine][:, None]
        pair_mn = np.broadcast_to(np.arange(len(col_mn))[:, None, None], col_mn.shape)
        row_mn = np.broadcast_to(self.row[mine][:, None], col_mn.shape)
        # X_n X_m: entry (i, j, v) of X_n times row j of X_m.
        col_nm = self.cols[m][self.col[theirs]]  # (E_n, width)
        val_nm = -self.val[theirs][:, None] * self.vals[m][self.col[theirs]]
        pair_nm = np.broadcast_to((self.gen[theirs] - first)[:, None], col_nm.shape)
        row_nm = np.broadcast_to(self.row[theirs][:, None], col_nm.shape)
        return tuple(np.concatenate([a.ravel(), b.ravel()]) for a, b in
                     ((pair_mn, pair_nm), (row_mn, row_nm), (col_mn, col_nm), (val_mn, val_nm)))

    def structure_constants(self, norm):
        """`_structure_constants` for X_m = i O_m: f[m, n, k] = -Tr([X_m, X_n] X_k) / N.

        Each trace reads X_k[c, i] for a bracket entry at (i, c) from a
        position -> (k, value) lookup, so only generators nonzero there are
        touched.
        """
        dim_m, dim = self.vals.shape[:2]
        pos = self.row * dim + self.col
        order = np.argsort(pos, kind="stable")
        owner, weight = self.gen[order], self.val[order]
        counts = np.bincount(pos, minlength=dim * dim)
        starts = np.cumsum(counts) - counts
        trace = np.zeros((dim_m, dim_m * dim_m))
        for m in range(dim_m):
            pair, row, col, val = self._brackets(m, 0)
            look = col * dim + row  # Tr(B X_k) pairs B[i, c] with X_k[c, i]
            # One term per (entry, generator nonzero at the looked-up position).
            cnt = np.where(val != 0, counts[look], 0)
            src = np.arange(cnt.sum()) + np.repeat(starts[look] - np.cumsum(cnt) + cnt, cnt)
            trace[m] = np.bincount(np.repeat(pair * dim_m, cnt) + owner[src],
                                   (np.repeat(val, cnt) * weight[src]).real, dim_m * dim_m)
        return -trace.reshape(dim_m, dim_m, dim_m) / norm

    def residual(self, f):
        """`_bracket_residual` of these generators, same definition and result.

        The residual [X_m, X_n] - sum_k f[m, n, k] X_k of each pair is
        scattered into its d x d bins, one row m (pairs n > m) at a time; only
        nonzero (or NaN) f[m, n, k] contribute to the sum.
        """
        dim_m, dim = self.vals.shape[:2]
        norms = np.sqrt(np.bincount(self.gen, np.abs(self.val) ** 2, dim_m))
        rows = np.arange(dim)[:, None]
        resid = np.zeros((dim_m, dim_m))
        for m in range(dim_m - 1):
            pair, row, col, val = self._brackets(m, m + 1)
            j, k = np.nonzero(f[m, m + 1:])
            expansion = -f[m, m + 1 + j, k][:, None, None] * self.vals[k]
            keys = np.concatenate([(pair * dim + row) * dim + col,
                                   ((j[:, None, None] * dim + rows) * dim + self.cols[k]).ravel()])
            values = np.concatenate([val, expansion.ravel()])
            bins = [np.bincount(keys, part, (dim_m - m - 1) * dim * dim).reshape(-1, dim * dim)
                    for part in (values.real, values.imag)]
            sq = sum(np.einsum("pi,pi->p", part, part) for part in bins)
            resid[m, m + 1:] = np.sqrt(sq) / np.maximum(1.0, norms[m] * norms[m + 1:])
        return _worst_pair(resid)


def _adjoint_from_constants(f, cw):
    """Adjoint images of E+_l, from the images -i bar(O_m) of each pair (u, v).

    The image of O_m is the M x M Hermitian matrix -i bar(O_m), the plain
    commutator [O_m, .] on basis coefficients, with bar(O_m)[k, m'] =
    f[m, m', k] the real matrix of ad(O_m); only the root images are kept.
    They obey the stored-bracket relations because f obeys the Jacobi
    identity once closure holds.
    """
    adj_u, adj_v = (np.transpose(f[idx], (0, 2, 1)) * -1j for idx in cw.pair_indices)
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

    Returns (commute, (r, s)), (eigen, (l, r)), (span, l), z, lam: the worst
    residual of each identity with where it occurs (NaN counts as worst),
    Z's coefficients z (L, M) and lam (L, R).  commute and eigen are relative
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
    return (_worst_pair(commute), _worst_pair(eigen), (float(span[worst]), worst),
            z, lam.T)


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
    csa_indices = tuple(int(i) for i in csa_indices)
    pair_map = tuple((int(u), int(v)) for u, v in root_pairs)
    rank = len(csa_indices)
    num_roots = len(pair_map)
    if rank == 0 or num_roots == 0 or 2 * num_roots + rank != basis.dim_M:
        raise InvalidAlgebraSpec(
            f"index bookkeeping is off: M={basis.dim_M} but R={rank}, L={num_roots}"
        )
    used = list(csa_indices) + [i for p in pair_map for i in p]
    if sorted(used) != list(range(basis.dim_M)):
        raise InvalidAlgebraSpec("csa_indices and root_pairs must partition the basis indices")

    u, v = np.array(pair_map).T
    (commute, (r, s)), (eigen, (l, k)), (span, m), z, _ = _root_residuals(
        np.asarray(basis.structure_constants), csa_indices, u, v)
    if not commute <= CSA_COMMUTE_TOL:
        raise CsaNotAbelian(f"H_{r} and H_{s} do not commute (residual {commute:.2e})")
    if not eigen <= EIGENVECTOR_TOL:
        raise RootPairNotEigenvector(
            f"root {l} is not an ad-eigenvector of H_{k} (residual {eigen:.2e})")
    if not span <= EIGENVECTOR_TOL:
        raise ZeroRootBracket(f"[E+, E-] of root {m} vanishes or leaves the CSA span")
    mu = z[:, list(csa_indices)]

    mats = np.asarray(basis.basis)
    return CartanWeylData(
        rank_R=rank,
        num_roots_L=num_roots,
        csa_indices=csa_indices,
        defining=RootImages((mats[u] + 1j * mats[v]) / 2.0),
        pair_map=pair_map,
        mu_matrix=mu,
        etas=2.0 * np.einsum("lr,lr->l", mu, mu),
    )


# ---------------------------------------------------------------------------
# Validation report
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float

    def __str__(self):
        tag = "pass" if self.passed else "FAIL"
        return f"[{tag}] {self.name}: residual {self.residual:.3e} (tol {self.tolerance:.1e})"


@dataclass
class ValidationReport:
    entries: list = field(default_factory=list)

    def add(self, name, residual, tolerance):
        self.entries.append(CheckResult(name, residual <= tolerance, float(residual), tolerance))
        return self.entries[-1]

    @property
    def ok(self):
        return all(e.passed for e in self.entries)

    def failures(self):
        return [e for e in self.entries if not e.passed]

    def __str__(self):
        return "\n".join(str(e) for e in self.entries)


def validate_algebra(basis, cw=None):
    """Run the invariant suite and return a diagnostic report.

    Checks Hermiticity, trace orthogonality, structure-constant antisymmetry,
    closure and Killing-form nondegeneracy (failing fast there), and, when a
    Cartan-Weyl split is supplied, CSA commutativity, the index count, the
    reconstruction identity and the su(2) triple relations: each one a
    hand-built `AlgebraBasis` or `CartanWeylData` can fail.  The adjoint rep
    and the closed-form rotations follow from these (module docstring).
    Closure and the Killing form are the basis's cached values; CSA
    commutativity and the su(2) relations of the stored mu and eta come from
    `_root_residuals`, the helper `build_cartan_weyl` raises from.
    """
    report = ValidationReport()
    mats = np.asarray(basis.basis)
    f = np.asarray(basis.structure_constants)

    herm = np.abs(mats - np.conj(np.transpose(mats, (0, 2, 1)))).max()
    report.add("basis hermiticity", herm, HERMITICITY_TOL * (1.0 + np.abs(mats).max()))
    norm = basis.normalization_N
    ortho = np.abs(trace_gram(mats, mats).real - norm * np.eye(basis.dim_M)).max()
    report.add("trace orthogonality Tr(O_m O_m') = N delta", ortho, ORTHOGONALITY_TOL * norm)
    antisym = np.abs(f + np.transpose(f, (1, 0, 2))).max()
    report.add("structure constants antisymmetric", antisym,
               ANTISYMMETRY_TOL * (1.0 + np.abs(f).max()))
    report.add("brackets close over the basis", basis.closure[0], CLOSURE_TOL)
    kill_ok = basis.killing_conditioning > KILLING_COND_TOL
    report.entries.append(CheckResult("Killing form nondegenerate", kill_ok,
                                      0.0 if kill_ok else basis.killing_conditioning,
                                      KILLING_COND_TOL))
    if not kill_ok or cw is None:
        return report  # fail fast: nothing downstream is meaningful

    u, v = cw.pair_indices
    csa = list(cw.csa_indices)
    (commute, _), (eigen, _), (span, _), z, lam = _root_residuals(f, csa, u, v)
    report.add("CSA generators commute", commute, CSA_COMMUTE_TOL)
    report.add("L = (M - R)/2", abs(basis.dim_M - cw.rank_R - 2 * cw.num_roots_L), 0.0)
    e_p, e_m = np.asarray(cw.raising_ops), np.asarray(cw.lowering_ops)
    recon = max(np.abs(mats[u] - (e_p + e_m)).max(), np.abs(mats[v] - 1j * (e_m - e_p)).max())
    report.add("Cartan-Weyl reconstruction identity", recon,
               1e-12 * (1.0 + np.abs(mats).max()))

    # With each E+ an ad(H_r) eigenvector and each Z in the CSA (eigen, span),
    # [S+, S-] - Sz = (Z - sum_r mu_r H_r)/eta and [Sz, S+-] -+ S+- =
    # +-(mu . lam/eta - 1) S+- for the stored mu and eta.
    mu, etas = cw.mu_matrix, cw.etas
    su2 = np.max([eigen, span, (np.abs(z[:, csa] - mu).max(axis=1) / etas).max(),
                  np.abs(np.einsum("lr,lr->l", mu, lam) / etas - 1.0).max()])
    report.add("su(2) triple relations", su2, SU2_TOL)
    return report


# ---------------------------------------------------------------------------
# Bundled algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Algebra:
    """An orthogonal basis with its Cartan-Weyl split and the adjoint root images."""

    basis: AlgebraBasis
    cartan_weyl: CartanWeylData
    adjoint: RootImages
    name: str = "custom"

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

        candidates = sorted(_weight_vectors(kernel, self.csa_ops),
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
        """Gap between the two largest eigenvalues of F_hw = sum_r w(H_r) H_r.

        F_hw is diagonal in `weight_basis`, so its eigenvalues are the weight
        table times w: no eigendecomposition on the defining representation.
        """
        evals = np.sort(self.weight_basis[1] @ self.highest_weight[1])
        gap = float(evals[-1] - evals[-2])
        scale = max(abs(evals[0]), abs(evals[-1]), 1e-300)
        if gap <= 1e-12 * scale:
            raise ZeroGap("highest-weight Hamiltonian has a degenerate top eigenvalue")
        return gap

    @cached_property
    def weight_basis(self):
        """(vectors, weights): vectors[:, i] is a unit eigenvector of every H_r
        with eigenvalue weights[i, r], so sum_r gamma_r H_r is diagonal there."""
        pairs = _weight_vectors(np.eye(self.rep_dim, dtype=complex), self.csa_ops)
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


def _weight_vectors(subspace, csa_ops):
    """Diagonalize the CSA action within a subspace; return (vector, weights) pairs."""
    k = subspace.shape[1]
    if k == 1:
        vecs = [subspace[:, 0]]
    else:
        # A fixed incommensurate combination splits distinct weights at once.
        coeffs = 1.0 / np.sqrt(np.arange(2, len(csa_ops) + 2, dtype=float))
        combo = np.einsum("r,rij->ij", coeffs, csa_ops)
        sub = subspace.conj().T @ combo @ subspace
        _, v = np.linalg.eigh((sub + sub.conj().T) / 2.0)
        vecs = [subspace @ v[:, i] for i in range(k)]
    out = []
    for vec in vecs:
        vec = vec / np.linalg.norm(vec)
        weights = vector_weights(vec, csa_ops)
        if weights is None:
            raise NotUnique("subspace does not split into CSA weight vectors")
        out.append((vec, weights))
    return out


def vector_weights(vec, csa_ops):
    """The weights <v|H_r|v> of a unit vector, or None unless it is an eigenvector
    of every H_r to WEIGHT_TOL (a non-finite vector never is)."""
    weights = np.empty(len(csa_ops))
    for r, h in enumerate(csa_ops):
        hv = h @ vec
        w = np.real(np.vdot(vec, hv))
        if not np.linalg.norm(hv - w * vec) <= WEIGHT_TOL * max(1.0, float(np.abs(h).max())):
            return None
        weights[r] = w
    return weights


def assemble_algebra(basis, csa_indices, root_pairs, name="custom"):
    """Build an Algebra from a basis plus Cartan-Weyl labeling.

    Raises ValidationFailed, carrying the report, when any invariant of
    `validate_algebra` fails (e.g. for a hand-built basis with bad f).
    """
    cw = build_cartan_weyl(basis, csa_indices, root_pairs)
    report = validate_algebra(basis, cw)
    if not report.ok:
        raise ValidationFailed(
            "algebra failed validation:\n" + "\n".join(str(e) for e in report.failures()),
            report=report,
        )
    adjoint = _adjoint_from_constants(np.asarray(basis.structure_constants), cw)
    _ = cw.defining.spectra, adjoint.spectra  # RootSpectrumIllConditioned here, not later
    return Algebra(basis=basis, cartan_weyl=cw, adjoint=adjoint, name=name)
