import warnings

import numpy as np
import pytest

from gcsynth import (
    GroupOp,
    apply_group_op,
    assemble_algebra,
    exact_moments,
    expectation,
    hidden_gcs,
    highest_weight_state,
    orthonormalize_basis,
    sample_measurements,
)
from gcsynth.algebra import KERNEL_TOL, _weight_vectors
from gcsynth.errors import InvalidParameter, NonHermitianObservable, NotUnique
from gcsynth.states import derive_seed, phase_min_distance, state_fidelity

from conftest import SIGMA_X, SIGMA_Y, SIGMA_Z, build_half_plus_one


# ---------------------------------------------------------------------------
# highest_weight_state
# ---------------------------------------------------------------------------

def test_su2_hw(su2_half):
    hw, weights = highest_weight_state(su2_half)
    assert state_fidelity(hw, [1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(weights, [1.0], atol=1e-12)


def test_so6_hw_is_vacuum(so6):
    hw, weights = highest_weight_state(so6)
    vacuum = np.zeros(8)
    vacuum[0] = 1.0
    assert state_fidelity(hw, vacuum) == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(weights, [1.0, 1.0, 1.0], atol=1e-10)
    # Annihilated by every raising operator.
    for e_plus in so6.cartan_weyl.raising_ops:
        assert np.linalg.norm(e_plus @ hw) < 1e-10


def test_reducible_direct_sum_not_unique(su2_half):
    # Two identical spin-1/2 blocks: two annihilated vectors with equal weights.
    def blocks(m):
        out = np.zeros((4, 4), dtype=complex)
        out[:2, :2] = m
        out[2:, 2:] = m
        return out

    basis = orthonormalize_basis([blocks(SIGMA_Z), blocks(SIGMA_X), blocks(SIGMA_Y)])
    doubled = assemble_algebra(basis, csa_indices=[0], root_pairs=[(1, 2)])
    with pytest.raises(NotUnique):
        highest_weight_state(doubled)


# ---------------------------------------------------------------------------
# apply_group_op
# ---------------------------------------------------------------------------

def test_zero_alpha_is_identity(su2_half):
    hw, _ = highest_weight_state(su2_half)
    out = apply_group_op(hw, GroupOp(0, 0.0), su2_half)
    assert np.abs(out - hw).max() < 1e-14


def test_pi_rotation_reaches_lowest_weight(su2_half):
    # Real alpha with alpha * sqrt(2 eta) = pi flips |hw> to the bottom state.
    eta = su2_half.cartan_weyl.root_triples[0].eta
    alpha = np.pi / np.sqrt(2.0 * eta)
    hw, _ = highest_weight_state(su2_half)
    out = apply_group_op(hw, GroupOp(0, alpha), su2_half)
    assert state_fidelity(out, [0.0, 1.0]) == pytest.approx(1.0, abs=1e-12)


def test_norm_preserved_on_random_ops(so4):
    rng = np.random.default_rng(11)
    hw, _ = highest_weight_state(so4)
    state = hw
    for _ in range(100):
        op = GroupOp(int(rng.integers(2)),
                     complex(rng.standard_normal(), rng.standard_normal()))
        state = apply_group_op(state, op, so4)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# expectation
# ---------------------------------------------------------------------------

def test_expectation_examples():
    zero = np.array([1.0, 0.0], dtype=complex)
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    assert expectation(zero, SIGMA_Z) == pytest.approx(1.0)
    assert expectation(plus, SIGMA_X) == pytest.approx(1.0)
    with pytest.raises(NonHermitianObservable):
        expectation(zero, np.array([[0, 1], [0, 0]], dtype=complex))


def test_random_su2_gcs_has_unit_purity(su2_half):
    # Bloch vector of a pure qubit state has length 1 in the N = 2 basis.
    rng = np.random.default_rng(3)
    hw, _ = highest_weight_state(su2_half)
    for _ in range(20):
        op = GroupOp(0, complex(rng.standard_normal(), rng.standard_normal()))
        state = apply_group_op(hw, op, su2_half)
        assert exact_moments(state, su2_half).purity == pytest.approx(1.0, abs=1e-12)


def test_annihilated_weight_vectors_are_dominant(catalog_algebras, su3, half_one):
    # For E+_l v = 0: mu_l . w / eta_l = <v|[S+, S-]|v> = ||S- v||^2 >= 0, so
    # every candidate `highest_weight` chooses from is dominant.  The so(2n)
    # spaces hold two spinor irreps, and spin 1/2 + spin 1 two spins; on the
    # latter the spin-1 top (Jz weight 1, against 1/2) is chosen.
    half_plus_one = build_half_plus_one()
    counts = {}
    for algebra in catalog_algebras + [su3, half_one, half_plus_one]:
        cw = algebra.cartan_weyl
        _, svals, vh = np.linalg.svd(np.concatenate(list(cw.raising_ops)))
        kernel = vh[svals <= KERNEL_TOL * max(1.0, svals.max())].conj().T
        candidates = _weight_vectors(kernel, algebra.csa_ops)
        counts[algebra.name] = len(candidates)
        for vec, weights in candidates + [algebra.highest_weight]:
            m_vals = cw.mu_matrix @ weights / cw.etas
            s_minus_sq = np.linalg.norm(cw.lowering_ops @ vec, axis=1) ** 2 / cw.etas
            assert np.abs(m_vals - s_minus_sq).max() <= 1e-12, algebra.name
            assert (m_vals >= -1e-12).all(), algebra.name  # zero up to round-off
    assert counts == {"su2:1": 1, "su2:2": 1, "su2:3": 1, "so2n:2": 2, "so2n:3": 2, "su3": 1,
                      "su2+su2:half-one": 1, "su2:half+one": 2}
    assert np.abs(half_plus_one.highest_weight[1] - 1.0).max() <= 1e-12


# ---------------------------------------------------------------------------
# sample_measurements
# ---------------------------------------------------------------------------

def test_deterministic_outcome():
    zero = np.array([1.0, 0.0], dtype=complex)
    for shots in (1, 7, 1000):
        rec = sample_measurements(zero, SIGMA_Z, shots, seed=5)
        assert rec.estimate == pytest.approx(1.0)
        assert rec.num_shots == shots


def test_symmetric_observable_bounded_and_converging():
    zero = np.array([1.0, 0.0], dtype=complex)
    estimates = [sample_measurements(zero, SIGMA_X, q, seed=17).estimate
                 for q in (16, 256, 4096, 65536)]
    assert all(abs(e) <= 1.0 for e in estimates)
    assert abs(estimates[-1]) < 0.02


def test_equal_seeds_equal_streams():
    state = np.array([0.6, 0.8j], dtype=complex)
    a = sample_measurements(state, SIGMA_X, 1000, seed=123).estimate
    b = sample_measurements(state, SIGMA_X, 1000, seed=123).estimate
    assert a == b


def test_degenerate_eigenspace_pooling():
    # Observable = identity: single outcome regardless of eigenvector choice.
    state = np.array([0.6, 0.8], dtype=complex)
    rec = sample_measurements(state, np.eye(2, dtype=complex), 50, seed=2)
    assert rec.estimate == pytest.approx(1.0)


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
def test_non_finite_observable_is_typed(entry, where):
    # A NaN residual used to pass the Hermiticity test: expectation returned
    # nan and sampling raised numpy's bare ValueError.
    obs = SIGMA_X.copy()
    obs[where] = obs[where[::-1]] = entry
    zero = np.array([1.0, 0.0], dtype=complex)
    with np.errstate(all="raise"):
        with pytest.raises(NonHermitianObservable):
            expectation(zero, obs)
        with pytest.raises(NonHermitianObservable):
            sample_measurements(zero, obs, 10, seed=1)


@pytest.mark.parametrize("state", [[np.nan, 0.0], [0.0, 1j * np.nan], [np.inf, 0.0],
                                   [0.0, -np.inf], [np.inf, np.inf], [0.0, 0.0]],
                         ids=["nan", "imag-nan", "inf", "-inf", "inf-inf", "zero"])
@pytest.mark.parametrize("obs", [SIGMA_Z, SIGMA_X], ids=["sz", "sx"])
def test_non_finite_or_zero_state_is_typed(state, obs):
    # expectation used to return nan, sampling to raise numpy's bare
    # ValueError (NaN) or warn (zero state, infinite state).
    psi = np.array(state, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameter, match="finite and nonzero"):
            expectation(psi, obs)
        with pytest.raises(InvalidParameter, match="finite and nonzero"):
            sample_measurements(psi, obs, 10, seed=1)


def test_hoeffding_coverage():
    # Empirical check of the concentration bound at delta = 0.05, Q = 400.
    zero = np.array([1.0, 0.0], dtype=complex)
    shots = 400
    bound = np.sqrt(2.0 * np.log(2.0 / 0.05)) / np.sqrt(shots)
    hits = sum(
        abs(sample_measurements(zero, SIGMA_X, shots, seed=s).estimate) <= bound
        for s in range(1000)
    )
    assert hits >= 950


# ---------------------------------------------------------------------------
# hidden_gcs
# ---------------------------------------------------------------------------

def test_hidden_trivial_preparation(su2_half):
    handle = hidden_gcs(su2_half, seed=1, num_ops=0)
    moments = handle.exact_moments()
    # Raising-sector moments vanish on |hw>.
    cw = su2_half.cartan_weyl
    for u, v in cw.pair_map:
        assert abs(moments.values[u]) < 1e-12
        assert abs(moments.values[v]) < 1e-12


def test_hidden_purity_invariance(su2_half):
    hw, w = highest_weight_state(su2_half)
    p_h = float(np.dot(w, w))
    handle = hidden_gcs(su2_half, seed=9, num_ops=1)
    assert handle.exact_moments().purity == pytest.approx(p_h, abs=1e-12)


def test_hidden_equal_seeds_identical_streams(so4):
    a = hidden_gcs(so4, seed=42, num_ops=3)
    b = hidden_gcs(so4, seed=42, num_ops=3)
    ma = a.sample_moments(200)
    mb = b.sample_moments(200)
    assert np.array_equal(ma.values, mb.values)


# ---------------------------------------------------------------------------
# Purity invariants
# ---------------------------------------------------------------------------

def test_purity_invariance_along_orbit(catalog_algebras):
    rng = np.random.default_rng(23)
    for algebra in catalog_algebras:
        hw, w = highest_weight_state(algebra)
        p_h = float(np.dot(w, w))
        state = hw
        for _ in range(10):
            op = GroupOp(int(rng.integers(algebra.cartan_weyl.num_roots_L)),
                         complex(rng.standard_normal(), rng.standard_normal()) / 2.0)
            state = apply_group_op(state, op, algebra)
            assert exact_moments(state, algebra).purity == pytest.approx(p_h, abs=1e-10)


def test_non_orbit_states_have_purity_deficit(su2_one, so4, so6):
    for algebra in (so4, so6):
        uniform = np.ones(algebra.rep_dim, dtype=complex) / np.sqrt(algebra.rep_dim)
        _, w = highest_weight_state(algebra)
        p_h = float(np.dot(w, w))
        assert exact_moments(uniform, algebra).purity < p_h - 1e-6
    # Spin-1 cat state: all three moments vanish.
    cat = np.array([1.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    _, w = highest_weight_state(su2_one)
    assert exact_moments(cat, su2_one).purity < float(np.dot(w, w)) - 1e-6


def test_derived_seeds_are_stable():
    assert derive_seed(7, 0) == derive_seed(7, 0)
    assert derive_seed(7, 0) != derive_seed(7, 1)


def test_phase_min_distance():
    a = np.array([1.0, 0.0], dtype=complex)
    assert phase_min_distance(a, 1j * a) < 1e-12
    b = np.array([0.0, 1.0], dtype=complex)
    assert phase_min_distance(a, b) == pytest.approx(np.sqrt(2.0))


def test_shot_count_below_one_is_typed(su2_half):
    hw, _ = highest_weight_state(su2_half)
    for shots in (0, -3):
        with pytest.raises(InvalidParameter):
            sample_measurements(hw, SIGMA_Z, shots, seed=1)


def test_negative_hidden_op_count_is_typed(su2_half):
    with pytest.raises(InvalidParameter):
        hidden_gcs(su2_half, seed=1, num_ops=-1)
