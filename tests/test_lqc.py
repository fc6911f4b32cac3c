import warnings

import numpy as np
import pytest

from gcsynth import (
    GroupOp,
    LqcCircuit,
    MomentVector,
    adjoint_action_of,
    apply_circuit,
    exact_moments,
    final_state_query,
    gcs_certificate,
    highest_weight_state,
    make_budget,
    propagate,
    verify,
)
import gcsynth.lqc as lqc_module
from gcsynth.algebra import trace_gram
from gcsynth.errors import GcsynthError, InvalidGate, LeavesAlgebraSpan, NonFiniteGate, NotAGcs
from gcsynth.lqc import SPAN_TOL, hw_moments

from conftest import expi_hermitian, group_op_unitary


def _random_group_ops(algebra, rng, count, scale=0.7):
    num_roots = algebra.cartan_weyl.num_roots_L
    return [GroupOp(int(rng.integers(num_roots)),
                    complex(rng.normal(scale=scale), rng.normal(scale=scale)))
            for _ in range(count)]


# ---------------------------------------------------------------------------
# adjoint_action_of
# ---------------------------------------------------------------------------

def test_identity_gate(su2_half):
    action = adjoint_action_of(np.eye(2, dtype=complex), su2_half)
    assert np.abs(action.matrix - np.eye(3)).max() < 1e-12


def test_su2_pi_half_x_rotation_is_bloch_rotation(su2_half):
    # exp(i pi/4 s_x) conjugation: z -> -y, y -> z in the Bloch frame
    # (rows ordered z, x, y).  Oracle: conjugate each Pauli and expand.
    alpha = np.pi / 4.0  # alpha E+ + alpha* E- = alpha s_x
    action = adjoint_action_of(GroupOp(0, alpha), su2_half)
    expected = np.array([[0.0, 0.0, -1.0],
                         [0.0, 1.0, 0.0],
                         [1.0, 0.0, 0.0]])
    u = group_op_unitary(GroupOp(0, alpha), su2_half)
    mats = np.asarray(su2_half.basis.basis)
    oracle = np.einsum("mij,nji->mn",
                       np.einsum("ji,mjk,kl->mil", u.conj(), mats, u),
                       mats).real / 2.0
    assert np.abs(action.matrix - oracle).max() < 1e-12
    assert np.abs(action.matrix - expected).max() < 1e-12


def test_action_is_orthogonal(catalog_algebras):
    rng = np.random.default_rng(3)
    for algebra in catalog_algebras:
        for op in _random_group_ops(algebra, rng, 3):
            d = adjoint_action_of(op, algebra).matrix
            assert np.abs(d @ d.T - np.eye(algebra.dim)).max() < 1e-9


def test_csa_phase_unitary_accepted(so6):
    # A CSA-diagonal phase unitary is not of displacement form but stays
    # in the span; it must be accepted with an orthogonal action.
    csa = so6.csa_ops
    gen = 0.3 * csa[0] + 0.9 * csa[1] - 0.4 * csa[2]
    action = adjoint_action_of(expi_hermitian(gen), so6)
    assert np.abs(action.matrix @ action.matrix.T - np.eye(so6.dim)).max() < 1e-9


def test_non_finite_unitary_rejected(su2_half):
    u = np.eye(2, dtype=complex)
    u[0, 1] = np.nan
    with pytest.raises(NonFiniteGate):
        adjoint_action_of(u, su2_half)


def test_bad_gates_are_typed(su2_half):
    for gate in (np.diag([1.0, 2.0]), np.eye(3)):
        with pytest.raises(InvalidGate):
            adjoint_action_of(gate, su2_half)
    for alpha in (complex(np.nan, 0.0), complex(0.0, np.inf)):
        with pytest.raises(NonFiniteGate):
            GroupOp(0, alpha)


def test_huge_alpha_is_non_finite_gate(su2_half, so6):
    # |alpha| times the largest generator eigenvalue overflows: e^{i t x} would
    # be NaN.  A Python complex past float range makes abs() itself overflow.
    psi = highest_weight_state(so6)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (1.5e308, complex(0.0, -1.5e308), complex(1.7e308, 1.7e308)):
            with pytest.raises(NonFiniteGate):
                adjoint_action_of(GroupOp(0, alpha), so6)
            with pytest.raises(NonFiniteGate):
                apply_circuit(psi, [GroupOp(0, alpha)], so6)
        with pytest.raises(NonFiniteGate):
            adjoint_action_of(GroupOp(0, 1e308), su2_half)


def test_span_leaving_unitary_rejected(su2_one):
    # A selective phase on one level of the spin-1 rep leaves span{Jz,Jx,Jy}.
    u = np.diag([1.0, 1.0, np.exp(0.7j)])
    with pytest.raises(LeavesAlgebraSpan):
        adjoint_action_of(u, su2_one)


def _dense_action(unitary, algebra):
    """The gate action on all N^2 entries, in complex arithmetic: U^dag O_m U,
    d from the trace Gram, and the worst span residual with its scale."""
    mats = np.asarray(algebra.basis.basis)
    conjugated = unitary.conj().T @ mats @ unitary
    d_complex = trace_gram(conjugated, mats) / algebra.norm
    flat = mats.reshape(algebra.dim, -1)
    resid = np.linalg.norm(conjugated.reshape(algebra.dim, -1) - d_complex @ flat, axis=1)
    scale = max(1.0, float(np.linalg.norm(flat, axis=1).max()))
    return d_complex.real, float(resid.max()), scale


def _accepted(unitary, algebra):
    try:
        adjoint_action_of(unitary, algebra)
    except LeavesAlgebraSpan:
        return False
    return True


def _assert_residual_near(unitary, algebra, residual, scale, monkeypatch):
    # The action's worst residual r is read through its span decision: with
    # the tolerance set to (residual -+ 1e-12 scale) / scale, r is refused
    # below and accepted above, so |r - residual| <= 1e-12 scale.
    for shift, accepted in ((-1e-12, False), (1e-12, True)):
        monkeypatch.setattr(lqc_module, "SPAN_TOL", residual / scale + shift)
        assert _accepted(unitary, algebra) is accepted, (algebra.name, residual)
    monkeypatch.undo()


@pytest.fixture(scope="module")
def oracle_algebras(catalog_algebras, so8, su3, half_one):
    return catalog_algebras + [so8, su3, half_one]


def test_in_algebra_unitaries_match_dense_oracle(oracle_algebras, monkeypatch):
    # exp(iH) with H in the algebra keeps the span: d equals the dense
    # oracle's to 1e-15, and so does the worst residual, relative to scale.
    rng = np.random.default_rng(83)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for algebra in oracle_algebras:
            mats = np.asarray(algebra.basis.basis)
            for _ in range(4):
                h = np.einsum("m,mij->ij", rng.normal(scale=0.6, size=algebra.dim), mats)
                unitary = expi_hermitian(h)
                d, residual, scale = _dense_action(unitary, algebra)
                assert np.abs(adjoint_action_of(unitary, algebra).matrix - d).max() <= 1e-15
                _assert_residual_near(unitary, algebra, residual, scale, monkeypatch)


def test_span_leaving_unitaries_match_dense_oracle(oracle_algebras, monkeypatch):
    # exp(i eps K) with K Hermitian, traceless and trace-orthogonal to the
    # algebra leaves the span by about eps ||[K, O_m]||.  Each eps whose oracle
    # residual is at least 10x above or at most 0.1x below SPAN_TOL * scale
    # gets the oracle's decision.
    rng = np.random.default_rng(89)
    decisions = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for algebra in oracle_algebras:
            mats, n = np.asarray(algebra.basis.basis), algebra.rep_dim
            raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            k = raw + raw.conj().T
            k -= np.trace(k) / n * np.eye(n)
            k -= np.einsum("m,mij->ij", np.einsum("mij,ji->m", mats, k).real / algebra.norm, mats)
            if np.abs(k).max() < 1e-9:  # the algebra spans every traceless matrix
                continue
            for eps in (1e-12, 1e-10, 1e-4, 1e-2, 0.5):
                unitary = expi_hermitian(eps * k)
                _, residual, scale = _dense_action(unitary, algebra)
                if 0.1 * SPAN_TOL * scale < residual < 10.0 * SPAN_TOL * scale:
                    continue
                expected = residual <= SPAN_TOL * scale
                assert _accepted(unitary, algebra) is expected, (algebra.name, eps)
                _assert_residual_near(unitary, algebra, residual, scale, monkeypatch)
                decisions.add(expected)
    assert decisions == {True, False}


def test_composition_order(so4):
    rng = np.random.default_rng(9)
    op1, op2 = _random_group_ops(so4, rng, 2)
    u1 = group_op_unitary(op1, so4)
    u2 = group_op_unitary(op2, so4)
    d1 = adjoint_action_of(op1, so4).matrix
    d2 = adjoint_action_of(op2, so4).matrix
    d12 = adjoint_action_of(u1 @ u2, so4).matrix
    assert np.abs(d1 @ d2 - d12).max() < 1e-9


# ---------------------------------------------------------------------------
# propagate
# ---------------------------------------------------------------------------

def test_empty_circuit_returns_initial(su2_half):
    initial = hw_moments(su2_half)
    circuit = LqcCircuit(actions=(), initial=initial)
    assert np.array_equal(propagate(circuit).values, initial.values)


def test_propagation_matches_brute_force(catalog_algebras):
    rng = np.random.default_rng(17)
    for algebra in catalog_algebras:
        hw, _ = highest_weight_state(algebra)
        ops = _random_group_ops(algebra, rng, 5)
        actions = [adjoint_action_of(op, algebra) for op in ops]
        circuit = LqcCircuit(actions=actions, initial=hw_moments(algebra))
        predicted = propagate(circuit)
        state = apply_circuit(hw, ops, algebra)
        assert np.abs(predicted.values - exact_moments(state, algebra).values).max() < 1e-10


def test_purity_preserved_along_trajectory(so6):
    rng = np.random.default_rng(29)
    ops = _random_group_ops(so6, rng, 8)
    actions = [adjoint_action_of(op, so6) for op in ops]
    initial = hw_moments(so6)
    for k in range(len(actions) + 1):
        point = propagate(LqcCircuit(actions=actions[:k], initial=initial))
        assert point.purity == pytest.approx(initial.purity, abs=1e-10)


def test_long_circuit_brute_force(so4):
    rng = np.random.default_rng(41)
    hw, _ = highest_weight_state(so4)
    ops = _random_group_ops(so4, rng, 20)
    actions = [adjoint_action_of(op, so4) for op in ops]
    final = propagate(LqcCircuit(actions=actions, initial=hw_moments(so4)))
    state = apply_circuit(hw, ops, so4)
    assert np.abs(final.values - exact_moments(state, so4).values).max() < 1e-9


def test_propagation_time_linear_in_length(so6):
    # Informational: once actions exist, propagation cost is one matvec per
    # gate.  An 8x gate count should not cost more than ~40x (generous
    # headroom over linear for timer noise at microsecond scales).
    import time
    import warnings

    rng = np.random.default_rng(71)
    action = adjoint_action_of(_random_group_ops(so6, rng, 1)[0], so6)

    def timed(length, reps=20):
        circuit = LqcCircuit(actions=[action] * length, initial=hw_moments(so6))
        best = np.inf
        for _ in range(reps):
            t0 = time.perf_counter()
            propagate(circuit)
            best = min(best, time.perf_counter() - t0)
        return best

    ratio = timed(400) / max(timed(50), 1e-9)
    if ratio > 40.0:
        warnings.warn(f"propagate scaled superlinearly: 8x gates took {ratio:.1f}x time")


# ---------------------------------------------------------------------------
# gcs_certificate
# ---------------------------------------------------------------------------

def test_certificate_on_orbit(so4):
    rng = np.random.default_rng(5)
    ops = _random_group_ops(so4, rng, 4)
    actions = [adjoint_action_of(op, so4) for op in ops]
    final = propagate(LqcCircuit(actions=actions, initial=hw_moments(so4)))
    ok, deficit = gcs_certificate(final, so4)
    assert ok
    assert abs(deficit) < 1e-10


def test_certificate_uniform_superposition(so6):
    uniform = np.ones(8, dtype=complex) / np.sqrt(8.0)
    ok, deficit = gcs_certificate(exact_moments(uniform, so6), so6)
    assert not ok
    assert deficit > 1e-6


def test_certificate_zero_moments(so6):
    _, w = highest_weight_state(so6)
    ok, deficit = gcs_certificate(MomentVector(np.zeros(so6.dim)), so6)
    assert not ok
    assert deficit == pytest.approx(float(np.dot(w, w)))


# ---------------------------------------------------------------------------
# final_state_query
# ---------------------------------------------------------------------------

def test_recover_circuit_from_trajectory(so4):
    rng = np.random.default_rng(61)
    hw, _ = highest_weight_state(so4)
    ops = _random_group_ops(so4, rng, 6)
    actions = [adjoint_action_of(op, so4) for op in ops]
    final = propagate(LqcCircuit(actions=actions, initial=hw_moments(so4)))
    budget = make_budget(1e-6, 0.05, so4)
    report = final_state_query(final, so4, budget)
    reference = apply_circuit(hw, ops, so4)
    check = verify(report, reference, so4)
    assert check.fidelity >= 1.0 - 1e-6


def test_hw_input_empty_circuit(su2_half):
    budget = make_budget(1e-6, 0.05, su2_half)
    report = final_state_query(hw_moments(su2_half), su2_half, budget)
    assert report.ops == []


def test_certificate_failure_raises(so6):
    uniform = np.ones(8, dtype=complex) / np.sqrt(8.0)
    budget = make_budget(1e-4, 0.05, so6)
    with pytest.raises(NotAGcs):
        final_state_query(exact_moments(uniform, so6), so6, budget)


def test_action_dimension_mismatch_is_typed(su2_half, so4):
    action = adjoint_action_of(GroupOp(0, 0.3), so4)
    with pytest.raises(GcsynthError):
        LqcCircuit(actions=[action], initial=hw_moments(su2_half))
