import numpy as np
import pytest

from gcsynth import assemble_algebra, make_so2n, make_su2, orthonormalize_basis
from gcsynth.algebra import expi_hermitian

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
def catalog_algebras(su2_half, su2_one, su2_threehalf, so4, so6):
    return [su2_half, su2_one, su2_threehalf, so4, so6]
