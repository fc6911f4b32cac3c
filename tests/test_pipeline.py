import gc
import math
import weakref

import numpy as np
import pytest

from gcsynth import (
    GroupOp,
    MomentVector,
    adjoint_action_of,
    apply_circuit,
    exact_moments,
    hidden_gcs,
    highest_weight_state,
    hoeffding_shots,
    make_budget,
    make_su2,
    orthonormalize_basis,
    spectral_gap,
    synthesize,
    verify,
)
from gcsynth.algebra import assemble_algebra
from gcsynth.errors import (
    GapBudgetInfeasible,
    GcsynthError,
    InvalidParameter,
    NonFiniteMoments,
    ShotCountOverflow,
    ZeroGap,
)
from gcsynth.states import phase_min_distance

from conftest import (
    build_tied_top,
    decomposition_from_operator,
    dense_spectral_gap,
    group_op_unitary,
)


# ---------------------------------------------------------------------------
# spectral_gap
# ---------------------------------------------------------------------------

def test_gap_su2_half(su2_half):
    # F_hw = s_z with eigenvalues +-1.
    assert spectral_gap(su2_half) == pytest.approx(2.0, abs=1e-12)


def test_gap_su2_one_from_eigensolve(su2_one):
    # Oracle: direct 3x3 eigensolve of w(O_z) O_z; equal to the last bit.
    assert spectral_gap(su2_one) == dense_spectral_gap(su2_one)


def test_gap_matches_dense_oracle(catalog_algebras, su3, half_one, so6):
    for algebra in catalog_algebras + [su3, half_one]:
        assert abs(spectral_gap(algebra) - dense_spectral_gap(algebra)) <= 1e-12, algebra.name
    assert spectral_gap(so6) == dense_spectral_gap(so6)


@pytest.mark.parametrize("kappa", [0.5, 2.0])
def test_gap_scales_quadratically(kappa, su2_threehalf):
    scaled_basis = orthonormalize_basis(
        [kappa * m for m in np.asarray(su2_threehalf.basis.basis)],
        target_N=kappa ** 2 * su2_threehalf.norm,
    )
    scaled = assemble_algebra(scaled_basis, csa_indices=[0], root_pairs=[(1, 2)])
    ratio = spectral_gap(scaled) / spectral_gap(su2_threehalf)
    assert ratio == pytest.approx(kappa ** 2, rel=1e-9)


# ---------------------------------------------------------------------------
# make_budget
# ---------------------------------------------------------------------------

def test_hoeffding_frozen_example():
    # ||O|| = 1, eps_M = 0.1, delta = 0.05, M = 3: Q = ceil(200 ln 120) = 958.
    assert hoeffding_shots(1.0, 0.1, 0.05, 3) == 958
    assert hoeffding_shots(1.0, 0.1, 0.05, 3) == math.ceil(200.0 * math.log(120.0))


def test_halving_epsilon_quadruples_shots(su2_half):
    b1 = make_budget(0.2, 0.05, su2_half)
    b2 = make_budget(0.1, 0.05, su2_half)
    assert b2.eps_M == pytest.approx(b1.eps_M / 2.0)
    assert abs(b2.Q - 4 * b1.Q) <= 4  # ceil slack


def test_delta_tenth_adds_log_term():
    # At fixed eps_M the increase is ceil-close to 2 ||O||^2 ln(10) / eps_M^2.
    q1 = hoeffding_shots(1.0, 0.1, 0.05, 3)
    q2 = hoeffding_shots(1.0, 0.1, 0.005, 3)
    assert abs((q2 - q1) - 200.0 * math.log(10.0)) <= 1.0


def test_budget_formula_invariants(so4):
    budget = make_budget(0.1, 0.05, so4)
    gap = spectral_gap(so4)
    o_norm = so4.max_observable_norm
    num_roots = so4.cartan_weyl.num_roots_L
    assert budget.eps_D == pytest.approx(
        budget.c_D * 0.1 ** 2 * gap ** 2 / (num_roots * o_norm ** 2))
    assert budget.eps_M == pytest.approx(budget.c_M * 0.1 * gap / (so4.dim * o_norm))
    assert budget.Q == hoeffding_shots(o_norm, budget.eps_M, 0.05, so4.dim)


def test_infeasible_budget_warns(su2_half):
    with pytest.warns(GapBudgetInfeasible):
        make_budget(100.0, 0.05, su2_half)


def test_tied_top_weight_has_zero_gap():
    algebra = build_tied_top()
    evals = np.sort(algebra.weight_basis[1] @ algebra.highest_weight[1])
    assert evals[-1] == pytest.approx(evals[-2], abs=1e-12)
    with pytest.raises(ZeroGap):
        spectral_gap(algebra)
    with pytest.raises(ZeroGap):
        make_budget(0.1, 0.05, algebra)


# ---------------------------------------------------------------------------
# synthesize + verify
# ---------------------------------------------------------------------------

def test_exact_hw_moments_give_empty_circuit(su2_half):
    handle = hidden_gcs(su2_half, seed=1, num_ops=0)
    budget = make_budget(1e-6, 0.05, su2_half)
    report = synthesize(handle.exact_moments(), su2_half, budget)
    assert report.ops == []
    assert report.steps_jacobi == 0
    assert report.steps_weyl == 0


def test_exact_random_su2_high_fidelity(su2_half):
    budget = make_budget(1e-6, 0.05, su2_half)
    for seed in range(20):
        handle = hidden_gcs(su2_half, seed=seed, num_ops=3)
        report = synthesize(handle.exact_moments(), su2_half, budget)
        check = verify(report, handle.reference_state(), su2_half)
        assert check.fidelity >= 1.0 - 1e-6


def test_sampled_su2_confidence(su2_half):
    budget = make_budget(0.1, 0.05, su2_half)
    hits = 0
    for seed in range(100):
        handle = hidden_gcs(su2_half, seed=seed, num_ops=3)
        report = synthesize(handle, su2_half, budget, seed=10_000 + seed)
        check = verify(report, handle.reference_state(), su2_half)
        if check.distance <= 0.1:
            hits += 1
    assert hits >= 95


def test_shot_accounting(so4):
    budget = make_budget(0.2, 0.05, so4)
    handle = hidden_gcs(so4, seed=3, num_ops=2)
    report = synthesize(handle, so4, budget, seed=4)
    assert report.shots_per_observable == budget.Q
    assert report.shot_total == budget.Q * so4.dim


def test_verify_trivial_cases(su2_half):
    handle = hidden_gcs(su2_half, seed=6, num_ops=2)
    # The hidden preparation itself has distance ~0.
    check = verify(list(handle.preparation_ops), handle.reference_state(), su2_half)
    assert check.distance < 1e-9
    # Empty circuit: distance equals the phase-minimized gap to |hw>.
    hw, _ = highest_weight_state(su2_half)
    check_empty = verify([], handle.reference_state(), su2_half)
    assert check_empty.distance == pytest.approx(
        phase_min_distance(handle.reference_state(), hw), abs=1e-12)


def test_exact_so6_tight_epsilon(so6):
    budget = make_budget(1e-4, 0.05, so6)
    for seed in range(5):
        handle = hidden_gcs(so6, seed=seed, num_ops=5)
        report = synthesize(handle.exact_moments(), so6, budget)
        check = verify(report, handle.reference_state(), so6)
        assert check.distance <= 1e-4


def test_conjugation_identity_through_circuit(so4):
    # Conjugating F_hw by the emitted circuit reproduces the (clipped)
    # target coefficients to within the step tolerance.
    budget = make_budget(1e-6, 0.05, so4)
    handle = hidden_gcs(so4, seed=11, num_ops=3)
    moments = handle.exact_moments()
    report = synthesize(moments, so4, budget)
    hw, w = highest_weight_state(so4)
    csa = so4.csa_ops
    f_hw = np.einsum("r,rij->ij", w, csa)
    unitary = np.eye(so4.rep_dim, dtype=complex)
    for op in report.ops:
        unitary = group_op_unitary(op, so4) @ unitary
    conj = unitary @ f_hw @ unitary.conj().T
    coeffs = decomposition_from_operator(conj, so4)
    tol = 10.0 * np.sqrt(budget.eps_D * so4.cartan_weyl.num_roots_L) + 1e-8
    assert np.abs(coeffs - moments.values).max() < tol


def test_sampled_so6_and_su3(so6, su3):
    # Sampling robustness beyond the smallest algebras: the parity-sector
    # structure of so(6) and the two-dimensional CSA of su(3) both survive
    # shot noise at the stock budget.
    for algebra in (so6, su3):
        budget = make_budget(0.1, 0.05, algebra)
        for seed in range(10):
            handle = hidden_gcs(algebra, seed=seed, num_ops=3)
            report = synthesize(handle, algebra, budget, seed=90_000 + seed)
            check = verify(report, handle.reference_state(), algebra)
            assert check.distance <= 0.1


def test_semisimple_half_one_assembles(half_one):
    # su(2) + su(2) on spin 1/2 x spin 1: the two ideals' Killing-to-trace
    # ratios differ, which an adjoint-orthogonality check at assembly refused.
    cw = half_one.cartan_weyl
    assert (half_one.dim, half_one.rep_dim, cw.rank_R, cw.num_roots_L) == (6, 6, 2, 2)
    # Scaled to Tr(O^2) = 6, H_0 = 2 Sz x I and H_1 = sqrt(1.5) I x Sz, so
    # |1/2, 1> has weights (2 * 1/2, sqrt(1.5) * 1).
    assert np.allclose(half_one.highest_weight[1], [1.0, np.sqrt(1.5)])


def test_semisimple_half_one_exact_roundtrip(half_one):
    # Acceptance 1's bar: distance <= 1e-5 at epsilon = 1e-6, here on 8-op states.
    budget = make_budget(1e-6, 0.05, half_one)
    for seed in range(30):
        handle = hidden_gcs(half_one, seed=seed, num_ops=8)
        report = synthesize(handle.exact_moments(), half_one, budget)
        assert verify(report, handle.reference_state(), half_one).distance <= 1e-5


def test_semisimple_half_one_sampled_confidence(half_one):
    # Acceptance 3's bar: at least 184 of 200 sampled trials within epsilon.
    budget = make_budget(0.1, 0.05, half_one)
    hits = 0
    for seed in range(200):
        handle = hidden_gcs(half_one, seed=seed, num_ops=3)
        report = synthesize(handle, half_one, budget, seed=50_000 + seed)
        hits += verify(report, handle.reference_state(), half_one).distance <= 0.1
    assert hits >= 184


def test_exact_synthesis_with_varied_depth(catalog_algebras):
    # Preparation depths 0..10, including the trivial hidden state.
    for algebra in catalog_algebras:
        budget = make_budget(1e-6, 0.05, algebra)
        for num_ops in (0, 1, 5, 10):
            handle = hidden_gcs(algebra, seed=31 + num_ops, num_ops=num_ops)
            report = synthesize(handle.exact_moments(), algebra, budget)
            check = verify(report, handle.reference_state(), algebra)
            assert check.distance <= 1e-5


def test_exact_moment_distance_scales_with_epsilon(catalog_algebras):
    # distance <= 10 epsilon on every catalog algebra (exact moments).
    epsilon = 1e-5
    for algebra in catalog_algebras:
        budget = make_budget(epsilon, 0.05, algebra)
        for seed in (0, 1):
            handle = hidden_gcs(algebra, seed=seed, num_ops=3)
            report = synthesize(handle.exact_moments(), algebra, budget)
            check = verify(report, handle.reference_state(), algebra)
            assert check.distance <= 10.0 * epsilon


# ---------------------------------------------------------------------------
# Bad inputs and lifetimes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_moments_rejected(so4, bad):
    values = hidden_gcs(so4, seed=4, num_ops=3).exact_moments().values.copy()
    values[2] = bad
    budget = make_budget(1e-6, 0.05, so4)
    with pytest.raises(NonFiniteMoments):
        synthesize(MomentVector(values), so4, budget)


def test_shot_count_beyond_int64_rejected(su2_half):
    budget = make_budget(1e-12, 0.05, su2_half)
    assert budget.Q > np.iinfo(np.int64).max
    with pytest.raises(ShotCountOverflow):
        synthesize(hidden_gcs(su2_half, seed=1, num_ops=2), su2_half, budget, seed=1)


def test_algebra_freed_after_use():
    # Derived data is cached on the algebra itself, so nothing else keeps it alive.
    algebra = make_su2(2)
    handle = hidden_gcs(algebra, seed=6, num_ops=3)
    budget = make_budget(1e-6, 0.05, algebra)
    report = synthesize(handle.exact_moments(), algebra, budget)
    assert verify(report, handle.reference_state(), algebra).distance < 1e-5
    ref = weakref.ref(algebra)
    del algebra, handle
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("epsilon, delta", [
    (np.nan, 0.05), (np.inf, 0.05), (-np.inf, 0.05), (0.0, 0.05), (-0.1, 0.05),
    (0.1, np.nan), (0.1, np.inf), (0.1, 0.0), (0.1, 1.0), (0.1, -0.5),
    (1e-200, 0.05), (1e-160, 0.05), (0.1, 5e-324), (1e200, 0.05), (1.35e154, 0.05),
    ("0.1", 0.05), (0.1, "x"), (0.1, None), (True, 0.05),
])
def test_bad_budget_tolerances_are_typed(su2_half, epsilon, delta):
    # A string or None used to raise a bare TypeError, and True ran as epsilon = 1.
    with pytest.raises(InvalidParameter):
        make_budget(epsilon, delta, su2_half)


@pytest.mark.parametrize("max_steps", [True, 2.5, float("nan"), "3"],
                         ids=["bool", "float", "nan", "str"])
def test_non_integer_max_steps_is_typed(su2_half, max_steps):
    # True and 2.5 used to run as step caps, NaN lifted the cap, and "3"
    # raised a bare TypeError.
    moments = hidden_gcs(su2_half, seed=3, num_ops=2).exact_moments()
    with pytest.raises(InvalidParameter, match="max_steps must be an integer"):
        synthesize(moments, su2_half, make_budget(1e-6, 0.05, su2_half), max_steps=max_steps)


def test_huge_eps_m_is_typed():
    # eps_M ** 2 overflows a Python float: a typed error, not an OverflowError.
    with pytest.raises(InvalidParameter):
        hoeffding_shots(1.0, 1e200, 0.05, 3)


# ---------------------------------------------------------------------------
# No eigendecomposition per operation
# ---------------------------------------------------------------------------

def test_no_eigendecomposition_per_op(so8, su3, monkeypatch):
    # Once an algebra's cached data exists, exact synthesis (Jacobi steps and
    # a Weyl walk), verification and a GroupOp gate action never call an
    # eigensolver: every root rotation takes the closed form.
    def exercise(algebra, seed):
        budget = make_budget(1e-6, 0.05, algebra)
        handle = hidden_gcs(algebra, seed=seed, num_ops=6)
        report = synthesize(handle.exact_moments(), algebra, budget)
        assert verify(report, handle.reference_state(), algebra).distance < 1e-5
        # A weight state below |hw>: zero Jacobi steps, then reflections.
        reflections = [GroupOp(l, algebra.reflection_alphas[l]) for l in (0, 1)]
        weight_state = apply_circuit(algebra.highest_weight[0], reflections, algebra)
        walk = synthesize(exact_moments(weight_state, algebra), algebra, budget)
        assert walk.steps_weyl >= 1
        assert verify(walk, weight_state, algebra).distance < 1e-5
        adjoint_action_of(GroupOp(1, 0.4 - 0.3j), algebra)
        return report.steps_jacobi

    calls = []

    def counted(name):
        original = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    for algebra in (so8, su3):
        exercise(algebra, seed=1)  # first use builds the cached data
        with monkeypatch.context() as patch:
            for name in ("eigh", "eig", "eigvalsh", "eigvals"):
                patch.setattr(np.linalg, name, counted(name))
            assert exercise(algebra, seed=2) >= 1
        assert calls == [], f"{algebra.name}: {calls}"


def test_bad_synthesis_source_is_typed(su2_half):
    budget = make_budget(1e-4, 0.05, su2_half)
    with pytest.raises(GcsynthError):
        synthesize([1.0, 0.0, 0.0], su2_half, budget)
