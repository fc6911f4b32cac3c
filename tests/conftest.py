import numpy as np
import pytest

from gcsynth import assemble_algebra, make_so2n, make_su2, orthonormalize_basis
from gcsynth.catalog import spin_matrices
from gcsynth.errors import NoProgress, NotAWeightState
from gcsynth.states import GroupOp, state_fidelity
from gcsynth.weyl import M_NEGATIVE_TOL, PROGRESS_TOL

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def gell_mann():
    """The eight Gell-Mann matrices, Tr(l_a l_b) = 2 delta_ab."""
    l1 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
    l2 = np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex)
    l3 = np.array([[1, 0, 0], [0, -1, 0], [0, 0, 0]], dtype=complex)
    l4 = np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex)
    l5 = np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex)
    l6 = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
    l7 = np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex)
    l8 = np.array([[1, 0, 0], [0, 1, 0], [0, 0, -2]], dtype=complex) / np.sqrt(3)
    return [l1, l2, l3, l4, l5, l6, l7, l8]


def expi_hermitian(h):
    """exp(i h) for Hermitian h by eigendecomposition: the dense reference the
    closed-form rotations are checked against."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def adjoint_matrices(algebra):
    """Adjoint images -i bar(O_m) of every basis element, bar(O_m)[k, m'] = f[m, m', k]."""
    return np.transpose(np.asarray(algebra.basis.structure_constants), (0, 2, 1)) * -1j


def adjoint_gram(algebra):
    """G[m, m'] = Tr(adj_m adj_m') of the adjoint images, summed entrywise.

    It is minus the Killing form: a multiple of delta on a simple algebra, one
    multiple per ideal on a sum of simple ideals."""
    adj = adjoint_matrices(algebra)
    return np.einsum("mij,nji->mn", adj, adj).real


def adjoint_coefficients(x, algebra):
    """Coefficients c with x = sum_m c_m adj_m, for x in the span of the adjoint
    images: solved against their Gram, which is a multiple of delta only on a
    simple algebra (on su(2) + su(2) it has one multiple per ideal)."""
    adj = adjoint_matrices(algebra)
    return np.linalg.solve(adjoint_gram(algebra), np.einsum("ij,mji->m", x, adj).real)


def cw_coefficients(algebra, gamma, iota):
    """Coefficient vector c with gamma on the CSA entries and c[u] - i c[v] = iota_l."""
    cw = algebra.cartan_weyl
    u, v = cw.pair_indices
    iota = np.atleast_1d(np.asarray(iota, dtype=complex))
    out = np.zeros(algebra.dim)
    out[list(cw.csa_indices)] = gamma
    out[u], out[v] = iota.real, -iota.imag
    return out


def csa_part(coeffs, algebra):
    """c with every root entry zeroed: the CSA projection of its operator."""
    csa = list(algebra.cartan_weyl.csa_indices)
    out = np.zeros(algebra.dim)
    out[csa] = coeffs[csa]
    return out


def assemble_operator(coeffs, algebra):
    """Dense defining-representation matrix of c, built from its Cartan-Weyl
    form sum_r gamma_r H_r + sum_l (iota_l E+_l + iota_l* E-_l)."""
    cw = algebra.cartan_weyl
    u, v = cw.pair_indices
    gamma, iota = coeffs[list(cw.csa_indices)], coeffs[u] - 1j * coeffs[v]
    out = np.einsum("r,rij->ij", gamma, algebra.csa_ops).astype(complex)
    part = np.einsum("l,lij->ij", iota, np.asarray(cw.raising_ops))
    return out + part + part.conj().T


def decomposition_from_operator(matrix, algebra):
    """Coefficient vector c_m = Tr(matrix O_m) / N of a defining-representation matrix."""
    mats = np.asarray(algebra.basis.basis)
    coeffs = np.einsum("ij,mji->m", np.asarray(matrix, dtype=complex), mats) / algebra.norm
    return coeffs.real


def build_half_one():
    """su(2) + su(2) on spin 1/2 x spin 1 (d = 6), not a catalog entry.

    Basis Sz x I, Sx x I, Sy x I, I x Sz, I x Sx, I x Sy; CSA {0, 3}, roots
    (1, 2) and (4, 5).  The two ideals have different Killing-to-trace
    ratios, so the adjoint Gram is not a multiple of delta.
    """
    first = [np.kron(s, np.eye(3)) for s in spin_matrices(1)]
    second = [np.kron(np.eye(2), s) for s in spin_matrices(2)]
    basis = orthonormalize_basis(first + second)
    return assemble_algebra(basis, csa_indices=[0, 3], root_pairs=[(1, 2), (4, 5)],
                            name="su2+su2:half-one")


def build_half_plus_one():
    """su(2) on spin 1/2 + spin 1 (d = 5), not a catalog entry: one irreducible
    block of each spin, so the raising operator annihilates two weight vectors."""
    blocks = []
    for half, one in zip(spin_matrices(1), spin_matrices(2)):
        block = np.zeros((5, 5), dtype=complex)
        block[:2, :2], block[2:, 2:] = half, one
        blocks.append(block)
    basis = orthonormalize_basis(blocks)
    return assemble_algebra(basis, csa_indices=[0], root_pairs=[(1, 2)],
                            name="su2:half+one")


def dense_spectral_gap(algebra):
    """Gap between the two largest eigenvalues of F_hw = sum_r w_r H_r by a dense
    `eigvalsh` on the defining representation: the oracle for
    `Algebra.spectral_gap`, which reads the gap off the weight table."""
    f_hw = np.einsum("r,rij->ij", algebra.highest_weight[1], algebra.csa_ops)
    evals = np.linalg.eigvalsh(f_hw)
    return float(evals[-1] - evals[-2])


def commutator(a, b):
    """Plain matrix commutator ab - ba."""
    return a @ b - b @ a


def root_su2(algebra, root_index):
    """Dense (S+, S-, Sz) of one root on the defining rep, from its stored mu and eta.

    S+- = E+-/sqrt(eta) and Sz = sum_r mu_r H_r / eta.
    """
    cw = algebra.cartan_weyl
    triple = cw.root_triples[root_index]
    s_plus = np.asarray(cw.raising_ops[root_index]) / np.sqrt(triple.eta)
    s_z = np.einsum("r,rij->ij", triple.mu, algebra.csa_ops) / triple.eta
    return s_plus, s_plus.conj().T, s_z


def group_op_unitary(op, algebra):
    """Dense oracle: exp{i(alpha E+ + alpha* E-)} on the defining rep by eigendecomposition.

    Shares no code with the closed-form rotations it checks.
    """
    cw = algebra.cartan_weyl
    gen = op.alpha * cw.raising_ops[op.root_index] \
        + np.conj(op.alpha) * cw.lowering_ops[op.root_index]
    return expi_hermitian(gen)


def _measure_weights(state, csa_ops, tol=1e-9):
    weights = np.empty(len(csa_ops))
    for r, h in enumerate(csa_ops):
        hv = h @ state
        w = float(np.real(np.vdot(state, hv)))
        if np.linalg.norm(hv - w * state) > tol * max(1.0, float(np.abs(h).max())):
            raise NotAWeightState(f"state is not an eigenvector of H_{r}")
        weights[r] = w
    return weights


def reflect_by_states(info, algebra):
    """Oracle Weyl walk on the defining representation.

    Same greedy key, tolerances and step cap as `reflect_to_highest_weight`,
    but every candidate reflection is applied to the state and the reflected
    weights are measured from it rather than computed on the weight vector.
    """
    cw = algebra.cartan_weyl
    csa_ops = algebra.csa_ops
    state = np.asarray(info.state, dtype=complex)
    weights = _measure_weights(state, csa_ops, tol=1e-8)

    hw, w_hw = algebra.highest_weight
    mu = cw.mu_matrix
    etas = cw.etas
    w_scale = max(1.0, float(np.abs(w_hw).max()))
    applied = []

    for _ in range(4 * cw.num_roots_L + 1):
        m_vals = mu @ weights / etas
        candidates = np.nonzero(m_vals < -M_NEGATIVE_TOL * w_scale)[0]
        if candidates.size == 0:
            break
        best = None
        for l in candidates:
            alpha = algebra.reflection_alphas[l]
            new_state = cw.defining.rotate(l, alpha, state)
            new_weights = _measure_weights(new_state, csa_ops)
            overlap_gain = float(np.dot(w_hw, new_weights - weights))
            height_gain = float(np.sum(mu @ new_weights / etas) - np.sum(m_vals))
            key = (overlap_gain, height_gain, -int(l))
            if best is None or key > best[0]:
                best = (key, int(l), alpha, new_state, new_weights)
        (overlap_gain, height_gain, _), l, alpha, state, weights = best
        if height_gain <= PROGRESS_TOL or overlap_gain < -PROGRESS_TOL * w_scale:
            raise NoProgress("no reflection increases the weight overlap")
        applied.append((l, alpha))

    if state_fidelity(state, hw) < 1.0 - 1e-9:
        raise NoProgress("reflections exhausted without reaching the highest-weight state")
    return [GroupOp(l, -alpha) for l, alpha in reversed(applied)]


def build_su3():
    """su(3) in the fundamental rep, Cartan-Weyl ordered: [l3, l8, l1, l4, l6, l2, l5, l7]."""
    l1, l2, l3, l4, l5, l6, l7, l8 = gell_mann()
    basis = orthonormalize_basis([l3, l8, l1, l4, l6, l2, l5, l7])
    return assemble_algebra(basis, csa_indices=[0, 1],
                            root_pairs=[(2, 5), (3, 6), (4, 7)], name="su3")


@pytest.fixture(scope="session")
def su2_half():
    return make_su2(1)


@pytest.fixture(scope="session")
def su2_one():
    return make_su2(2)


@pytest.fixture(scope="session")
def su2_threehalf():
    return make_su2(3)


@pytest.fixture(scope="session")
def so4():
    return make_so2n(2)


@pytest.fixture(scope="session")
def so6():
    return make_so2n(3)


@pytest.fixture(scope="session")
def so8():
    return make_so2n(4)


@pytest.fixture(scope="session")
def su3():
    return build_su3()


@pytest.fixture(scope="session")
def half_one():
    return build_half_one()


@pytest.fixture(scope="session")
def catalog_algebras(su2_half, su2_one, su2_threehalf, so4, so6):
    return [su2_half, su2_one, su2_threehalf, so4, so6]
