import numpy as np
import pytest

from gcsynth import (
    MomentVector,
    build_target,
    exact_moments,
    hidden_gcs,
    highest_weight_state,
    offdiag_distance,
    purity,
    root_coefficients,
)
from gcsynth.errors import GcsynthError, LengthMismatch, NonFiniteMoments

from conftest import (
    SIGMA_X,
    assemble_operator,
    csa_part,
    decomposition_from_operator,
    group_op_unitary,
)


# ---------------------------------------------------------------------------
# build_target
# ---------------------------------------------------------------------------

def test_build_target_sigma_z(su2_half):
    coeffs = build_target(MomentVector([1.0, 0.0, 0.0]), su2_half)
    assert np.allclose(coeffs[[0]], [1.0])
    assert np.allclose(root_coefficients(coeffs, su2_half), [0.0])


def test_build_target_sigma_x(su2_half):
    coeffs = build_target(MomentVector([0.0, 1.0, 0.0]), su2_half)
    assert np.allclose(coeffs[[0]], [0.0])
    assert np.allclose(root_coefficients(coeffs, su2_half), [1.0])
    # F = s_x = E+ + E-.
    assert np.abs(assemble_operator(coeffs, su2_half) - SIGMA_X).max() < 1e-14


def test_build_target_random_so4_reconstruction(so4):
    rng = np.random.default_rng(5)
    for _ in range(10):
        values = rng.standard_normal(so4.dim)
        moments = MomentVector(values)
        coeffs = build_target(moments, so4)
        direct = np.einsum("m,mij->ij", values, so4.basis.basis)
        assert np.abs(assemble_operator(coeffs, so4) - direct).max() < 1e-10


def test_build_target_length_mismatch(su2_half):
    with pytest.raises(LengthMismatch):
        build_target(MomentVector([1.0, 0.0]), su2_half)


def test_build_target_non_finite(su2_half):
    # MomentVector itself accepts NaN; the check runs when a target is built.
    with pytest.raises(NonFiniteMoments):
        build_target(MomentVector([np.nan, 0.0, 0.0]), su2_half)
    with pytest.raises(NonFiniteMoments):
        build_target(MomentVector([0.0, np.inf, 0.0], source="sampled", shots=4), su2_half)


def test_sampled_moments_clipped_only_on_assembly(su2_half):
    # Raw values stay auditable; assembly clips into [-||O||, ||O||].
    noisy = MomentVector([1.03, 0.0, 0.0], source="sampled", shots=10, seed=0)
    assert noisy.values[0] == pytest.approx(1.03)
    coeffs = build_target(noisy, su2_half)
    assert coeffs[0] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# purity
# ---------------------------------------------------------------------------

def test_purity_examples(su2_half):
    hw, _ = highest_weight_state(su2_half)
    assert exact_moments(hw, su2_half).purity == pytest.approx(1.0, abs=1e-12)
    assert purity(MomentVector(np.zeros(3))) == 0.0


def test_purity_invariant_on_gcs(su2_half):
    handle = hidden_gcs(su2_half, seed=2, num_ops=3)
    assert handle.exact_moments().purity == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# offdiag_distance / root_coefficients
# ---------------------------------------------------------------------------

def test_distance_examples(su2_half):
    assert offdiag_distance(build_target(MomentVector([1.0, 0.0, 0.0]), su2_half),
                            su2_half) == 0.0
    d = offdiag_distance(build_target(MomentVector([0.0, 1.0, 0.0]), su2_half), su2_half)
    assert d == pytest.approx(1.0)


def test_distance_ignores_csa_changes(so4):
    rng = np.random.default_rng(8)
    values = rng.standard_normal(so4.dim)
    coeffs = build_target(MomentVector(values), so4)
    shifted = values.copy()
    shifted[list(so4.cartan_weyl.csa_indices)] += rng.standard_normal(2)
    coeffs2 = build_target(MomentVector(shifted), so4)
    assert offdiag_distance(coeffs, so4) == pytest.approx(offdiag_distance(coeffs2, so4))


def test_root_coefficients(su2_half, so6):
    # iota_l = c[u] - i c[v]: <O_v> enters with a minus sign, the CSA not at all.
    assert root_coefficients(np.array([0.7, 0.0, 0.0]), su2_half)[0] == 0.0
    assert root_coefficients(np.array([0.0, 0.3, 0.4]), su2_half)[0] == 0.3 - 0.4j
    u, v = so6.cartan_weyl.pair_indices
    values = np.random.default_rng(3).standard_normal(so6.dim)
    iota = root_coefficients(values, so6)
    assert np.array_equal(iota.real, values[u]) and np.array_equal(iota.imag, -values[v])
    assert np.array_equal(root_coefficients(csa_part(values, so6), so6),
                          np.zeros(so6.cartan_weyl.num_roots_L))


def test_projection_norm_bound(so6):
    # || F - F_CSA || <= 2 ||O|| sum|iota| <= 2 ||O|| sqrt(d L).
    rng = np.random.default_rng(13)
    o_norm = so6.max_observable_norm
    num_roots = so6.cartan_weyl.num_roots_L
    for _ in range(10):
        coeffs = build_target(MomentVector(rng.standard_normal(so6.dim)), so6)
        perp = assemble_operator(coeffs, so6) - assemble_operator(csa_part(coeffs, so6), so6)
        op_norm = np.abs(np.linalg.eigvalsh(perp)).max()
        abs_sum = np.abs(root_coefficients(coeffs, so6)).sum()
        d = offdiag_distance(coeffs, so6)
        assert op_norm <= 2.0 * o_norm * abs_sum + 1e-12
        assert abs_sum <= np.sqrt(d * num_roots) + 1e-12


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------

def test_gcs_moment_hamiltonian_top_eigenpair(catalog_algebras):
    # F_psi has top eigenvalue = purity with eigenvector psi, per algebra.
    rng = np.random.default_rng(31)
    for algebra in catalog_algebras:
        handle = hidden_gcs(algebra, seed=int(rng.integers(1 << 30)), num_ops=3)
        moments = handle.exact_moments()
        f_psi = np.einsum("m,mij->ij", moments.values, algebra.basis.basis)
        evals, evecs = np.linalg.eigh(f_psi)
        assert evals[-1] == pytest.approx(moments.purity, abs=1e-9)
        overlap = abs(np.vdot(evecs[:, -1], handle.reference_state()))
        assert overlap == pytest.approx(1.0, abs=1e-9)


def test_hidden_unitary_conjugates_f_hw_to_f_psi(catalog_algebras):
    # Coefficient form of U F_hw U^dag must equal the moment vector.
    for k, algebra in enumerate(catalog_algebras):
        handle = hidden_gcs(algebra, seed=100 + k, num_ops=4)
        hw, weights = highest_weight_state(algebra)
        csa_ops = algebra.csa_ops
        f_hw = np.einsum("r,rij->ij", weights, csa_ops)
        unitary = np.eye(algebra.rep_dim, dtype=complex)
        for op in handle.preparation_ops:
            unitary = group_op_unitary(op, algebra) @ unitary
        conj = unitary @ f_hw @ unitary.conj().T
        coeffs = decomposition_from_operator(conj, algebra)
        assert np.abs(coeffs - handle.exact_moments().values).max() < 1e-9


def test_coefficient_roundtrip(so6):
    rng = np.random.default_rng(40)
    values = rng.standard_normal(so6.dim)
    coeffs = build_target(MomentVector(values), so6)
    assert np.array_equal(coeffs, values)
    back = decomposition_from_operator(assemble_operator(coeffs, so6), so6)
    assert np.abs(back - coeffs).max() < 1e-12


def test_unknown_moment_source_is_typed():
    with pytest.raises(GcsynthError):
        MomentVector([1.0, 0.0, 0.0], source="guessed")
