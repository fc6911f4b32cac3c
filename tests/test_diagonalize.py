from dataclasses import replace

import numpy as np
import pytest

from gcsynth import (
    MomentVector,
    apply_step,
    build_target,
    hidden_gcs,
    make_budget,
    make_so2n,
    offdiag_distance,
    plan_step,
    root_coefficients,
    select_pivot,
    step_bound,
    synthesize,
)
from gcsynth.algebra import RootImages
from gcsynth.diagonalize import StepPlan, run
from gcsynth.errors import (
    AlreadyDiagonal,
    InvalidParameter,
    MaxStepsExceeded,
    RootIndexOutOfRange,
    StepDidNotReducePivot,
    ZeroPivot,
)
from gcsynth.states import GroupOp

from conftest import (
    assemble_operator,
    cw_coefficients,
    decomposition_from_operator,
    dense_rotate,
    group_op_unitary,
)


# ---------------------------------------------------------------------------
# select_pivot
# ---------------------------------------------------------------------------

def test_pivot_largest_magnitude(so4):
    coeffs = cw_coefficients(so4, [0.0, 0.0], [0.1, 0.9j])
    assert select_pivot(np.abs(root_coefficients(coeffs, so4))) == 1


def test_pivot_tie_breaks_to_smallest_index(so4):
    coeffs = cw_coefficients(so4, [0.0, 0.0], [0.5, 0.5])
    assert select_pivot(np.abs(root_coefficients(coeffs, so4))) == 0


def test_pivot_on_diagonal_raises(su2_half):
    with pytest.raises(AlreadyDiagonal):
        select_pivot(np.abs(root_coefficients(cw_coefficients(su2_half, [1.0], [0.0]),
                                              su2_half)))


def test_pivot_strictly_reduced_after_step(su3):
    rng = np.random.default_rng(6)
    for _ in range(10):
        coeffs = build_target(MomentVector(rng.standard_normal(su3.dim)), su3)
        pivot = select_pivot(np.abs(root_coefficients(coeffs, su3)))
        before = abs(root_coefficients(coeffs, su3)[pivot])
        plan = plan_step(coeffs, pivot, su3)
        after, _ = apply_step(coeffs, plan, su3, offdiag_distance(coeffs, su3))
        assert abs(root_coefficients(after, su3)[pivot]) < before * 1e-9


# ---------------------------------------------------------------------------
# plan_step
# ---------------------------------------------------------------------------

def test_plan_frozen_su2_sigma_x(su2_half):
    # gamma = 0, iota = 1 (F = s_x), eta = 2: the worked single-root case.
    plan = plan_step(cw_coefficients(su2_half, [0.0], [1.0]), 0, su2_half)
    # |alpha| is theta / sqrt(2 eta) with theta = arctan2(1, 0) = pi / 2.
    assert plan.alpha == pytest.approx(1j * np.pi / 4.0)
    assert abs(plan.alpha) == pytest.approx((np.pi / 2.0) / np.sqrt(2.0 * 2.0))


def test_plan_cross_check_2x2_conjugation(su2_half):
    # Oracle: conjugating s_x by exp{i(alpha s+ + alpha* s-)} lands on the CSA.
    coeffs = cw_coefficients(su2_half, [0.0], [1.0])
    plan = plan_step(coeffs, 0, su2_half)
    u = group_op_unitary(GroupOp(0, plan.alpha), su2_half)
    f_x = assemble_operator(coeffs, su2_half)
    conj = u.conj().T @ f_x @ u
    out = decomposition_from_operator(conj, su2_half)
    assert abs(root_coefficients(out, su2_half)[0]) < 1e-12
    assert abs(out[0]) == pytest.approx(1.0, abs=1e-12)


def test_plan_imaginary_iota_gives_real_alpha(su2_half):
    plan = plan_step(cw_coefficients(su2_half, [0.0], [0.8j]), 0, su2_half)
    assert plan.alpha.real != 0.0
    assert plan.alpha.imag == pytest.approx(0.0, abs=1e-15)


def test_plan_negative_xi_z_upper_branch(su2_half):
    # gamma = -1, iota = 0.01: theta must land near pi, and one step still
    # annihilates the pivot.
    coeffs = cw_coefficients(su2_half, [-1.0], [0.01])
    plan = plan_step(coeffs, 0, su2_half)
    theta = abs(plan.alpha) * np.sqrt(2.0 * su2_half.cartan_weyl.root_triples[0].eta)
    assert theta > np.pi / 2.0
    assert theta == pytest.approx(np.pi, abs=0.05)
    after, _ = apply_step(coeffs, plan, su2_half, offdiag_distance(coeffs, su2_half))
    assert abs(root_coefficients(after, su2_half)[0]) < 1e-12
    # The 2x2 oracle agrees.
    u = group_op_unitary(GroupOp(0, plan.alpha), su2_half)
    conj = u.conj().T @ assemble_operator(coeffs, su2_half) @ u
    out = decomposition_from_operator(conj, su2_half)
    assert abs(root_coefficients(out, su2_half)[0]) < 1e-12


def test_plan_zero_pivot_raises(su2_half):
    with pytest.raises(ZeroPivot):
        plan_step(cw_coefficients(su2_half, [1.0], [0.0]), 0, su2_half)


@pytest.mark.parametrize("pivot", [-1, 2])
def test_plan_pivot_out_of_range_is_typed(so4, pivot):
    with pytest.raises(RootIndexOutOfRange):
        plan_step(cw_coefficients(so4, [0.0, 0.0], [0.5, 0.5]), pivot, so4)


# ---------------------------------------------------------------------------
# apply_step
# ---------------------------------------------------------------------------

def test_apply_step_su2_sigma_x(su2_half):
    coeffs = cw_coefficients(su2_half, [0.0], [1.0])
    plan = plan_step(coeffs, 0, su2_half)
    after, used = apply_step(coeffs, plan, su2_half, offdiag_distance(coeffs, su2_half))
    assert abs(root_coefficients(after, su2_half)[0]) < 1e-12
    assert abs(abs(after[0]) - 1.0) < 1e-12
    assert offdiag_distance(after, su2_half) < 1e-24
    assert used.alpha == plan.alpha


def test_apply_step_conserves_coefficient_norm(su3):
    rng = np.random.default_rng(21)
    for _ in range(10):
        coeffs = build_target(MomentVector(rng.standard_normal(su3.dim)), su3)
        pivot = select_pivot(np.abs(root_coefficients(coeffs, su3)))
        plan = plan_step(coeffs, pivot, su3)
        after, _ = apply_step(coeffs, plan, su3, offdiag_distance(coeffs, su3))
        assert np.dot(after, after) == pytest.approx(np.dot(coeffs, coeffs), abs=1e-10)


def test_sign_flipped_plan_raises(su3):
    # Rotating the wrong way moves the field from polar angle theta to
    # 2 theta, so the pivot survives unless theta = pi/2; no retry rescues it.
    rng = np.random.default_rng(8)
    for _ in range(5):
        coeffs = build_target(MomentVector(rng.standard_normal(su3.dim)), su3)
        pivot = select_pivot(np.abs(root_coefficients(coeffs, su3)))
        plan = plan_step(coeffs, pivot, su3)
        eta = su3.cartan_weyl.root_triples[pivot].eta
        assert abs(abs(plan.alpha) * np.sqrt(2.0 * eta) - np.pi / 2.0) > 1e-3
        flipped = replace(plan, alpha=-plan.alpha)
        with pytest.raises(StepDidNotReducePivot):
            apply_step(coeffs, flipped, su3, offdiag_distance(coeffs, su3))


def test_apply_zero_alpha_plan_gets_the_pivot_check(su2_half):
    # plan_step never makes alpha = 0; a hand-built zero plan rotates nothing,
    # so its pivot survives and the step is refused like any other.
    coeffs = cw_coefficients(su2_half, [1.0], [0.5])
    zero_plan = StepPlan(pivot=0, alpha=0.0)
    with pytest.raises(StepDidNotReducePivot, match="pivot 0 kept"):
        apply_step(coeffs, zero_plan, su2_half, offdiag_distance(coeffs, su2_half))


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_single_root_single_step(su2_half):
    rng = np.random.default_rng(2)
    for _ in range(10):
        coeffs = build_target(MomentVector(rng.standard_normal(3)), su2_half)
        result = run(coeffs, su2_half, eps_d=1e-12)
        assert result.steps_taken <= 1
        assert result.achieved_d <= 1e-12


def test_already_diagonal_zero_ops(su2_half):
    result = run(cw_coefficients(su2_half, [1.0], [0.0]), su2_half, eps_d=1e-10)
    assert result.steps_taken == 0
    assert result.ops == ()
    assert result.trace == (0.0,)


def test_step_bound_frozen_value():
    # d0 = 1, eps = 0.01, L = 6: ceil(ln(100) / ln(7/6)) = 30.
    assert step_bound(1.0, 0.01, 6) == 30


def test_so6_within_bound_plus_slack(so6):
    rng = np.random.default_rng(77)
    num_roots = so6.cartan_weyl.num_roots_L
    for k in range(10):
        handle = hidden_gcs(so6, seed=500 + k, num_ops=4)
        coeffs = build_target(handle.exact_moments(), so6)
        d0 = offdiag_distance(coeffs, so6)
        eps_d = 1e-8
        result = run(coeffs, so6, eps_d=eps_d)
        assert result.steps_taken <= step_bound(d0, eps_d, num_roots) + num_roots


def test_so6_random_hamiltonians_meet_bound(so6):
    # Arbitrary algebra elements, not GCS moments: d0 normalized to 1 and
    # eps_D = 0.01 must finish within the 30-step bound plus L slack.
    rng = np.random.default_rng(53)
    num_roots = so6.cartan_weyl.num_roots_L
    assert step_bound(1.0, 0.01, num_roots) == 30
    for _ in range(20):
        coeffs = build_target(MomentVector(rng.standard_normal(so6.dim)), so6)
        coeffs = coeffs / np.sqrt(offdiag_distance(coeffs, so6))
        assert offdiag_distance(coeffs, so6) == pytest.approx(1.0)
        result = run(coeffs, so6, eps_d=0.01)
        assert result.steps_taken <= 30 + num_roots


def test_trace_monotone_nonincreasing(catalog_algebras):
    # Random (non-GCS) coefficient vectors: d never increases along a run.
    rng = np.random.default_rng(900)
    for algebra in catalog_algebras:
        for _ in range(20):
            coeffs = build_target(MomentVector(rng.standard_normal(algebra.dim)),
                                  algebra)
            result = run(coeffs, algebra, eps_d=1e-9)
            trace = np.array(result.trace)
            assert (np.diff(trace) <= 1e-12 * max(1.0, trace[0])).all()


def test_max_steps_exceeded_carries_trace(so6):
    handle = hidden_gcs(so6, seed=4, num_ops=4)
    coeffs = build_target(handle.exact_moments(), so6)
    with pytest.raises(MaxStepsExceeded) as err:
        run(coeffs, so6, eps_d=1e-12, max_steps=1)
    assert len(err.value.trace) == 2


# ---------------------------------------------------------------------------
# Oracle equivalences
# ---------------------------------------------------------------------------

def test_emitted_ops_reproduce_final_operator(catalog_algebras):
    # Conjugating F0 by V_1..V_K' in the defining rep matches the adjoint
    # bookkeeping to 1e-8.
    for k, algebra in enumerate(catalog_algebras):
        handle = hidden_gcs(algebra, seed=300 + k, num_ops=3)
        coeffs = build_target(handle.exact_moments(), algebra)
        result = run(coeffs, algebra, eps_d=1e-10)
        f = assemble_operator(coeffs, algebra)
        for op in result.ops:
            u = group_op_unitary(op, algebra)
            f = u.conj().T @ f @ u
        target = assemble_operator(result.final_coeffs, algebra)
        assert np.abs(f - target).max() < 1e-8
        assert np.abs(decomposition_from_operator(f, algebra)
                      - result.final_coeffs).max() < 1e-8


def test_top_eigenvalue_invariant_across_steps(so4):
    handle = hidden_gcs(so4, seed=8, num_ops=3)
    coeffs = build_target(handle.exact_moments(), so4)
    top0 = np.linalg.eigvalsh(assemble_operator(coeffs, so4))[-1]
    result = run(coeffs, so4, eps_d=1e-12)
    top1 = np.linalg.eigvalsh(assemble_operator(result.final_coeffs, so4))[-1]
    assert top1 == pytest.approx(top0, abs=1e-9)


def test_negative_max_steps_is_typed(so4):
    # It used to end as MaxStepsExceeded "after -1 steps", a numerical failure.
    coeffs = build_target(hidden_gcs(so4, seed=3, num_ops=3).exact_moments(), so4)
    with pytest.raises(InvalidParameter, match="max_steps must be >= 0"):
        run(coeffs, so4, 1e-12, max_steps=-1)
    with pytest.raises(MaxStepsExceeded):
        run(coeffs, so4, 1e-12, max_steps=0)
    diagonal = np.zeros(so4.dim)
    diagonal[list(so4.cartan_weyl.csa_indices)] = 1.0
    assert run(diagonal, so4, 1e-12, max_steps=0).steps_taken == 0


@pytest.mark.parametrize("eps_d", [np.nan, 0.0, -1e-6])
def test_bad_eps_d_is_typed(so4, eps_d):
    coeffs = build_target(hidden_gcs(so4, seed=3, num_ops=3).exact_moments(), so4)
    with pytest.raises(InvalidParameter):
        run(coeffs, so4, eps_d)


def test_synthesis_streams_match_dense_kernel(su3, monkeypatch):
    # The support kernel against the dense one it replaced (conftest.dense_rotate)
    # on the exact-moment streams: 20 hidden states per algebra give the same
    # pivots, step counts and kind tags, with exponents within 1e-13.
    def old_rotate(self, root_index, alpha, x):
        # The dense kernel's callers kept the real part of an adjoint rotation.
        out = dense_rotate(self, root_index, alpha, x)
        return out if np.iscomplexobj(x) else out.real

    worst, steps = 0.0, 0
    for algebra in [su3] + [make_so2n(n) for n in (3, 4, 5, 6)]:
        budget = make_budget(1e-6, 0.05, algebra)
        for seed in range(20):
            moments = hidden_gcs(algebra, seed=seed, num_ops=20).exact_moments()
            lean = synthesize(moments, algebra, budget)
            with monkeypatch.context() as patch:
                patch.setattr(RootImages, "rotate", old_rotate)
                dense = synthesize(moments, algebra, budget)
            assert [op.root_index for op in lean.ops] == [op.root_index for op in dense.ops]
            assert lean.kind_tags == dense.kind_tags
            assert (lean.steps_jacobi, lean.steps_weyl) == (dense.steps_jacobi, dense.steps_weyl)
            worst = max([worst] + [abs(a.alpha - b.alpha) for a, b in zip(lean.ops, dense.ops)])
            steps += lean.steps_jacobi
    assert worst <= 1e-13
    assert steps > 1000
