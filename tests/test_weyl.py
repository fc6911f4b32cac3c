import itertools

import numpy as np
import pytest

from gcsynth import (
    GroupOp,
    apply_circuit,
    highest_weight_state,
    make_so2n,
    make_su2,
    reflect_to_highest_weight,
    top_weight_state,
)
import gcsynth.algebra as algebra_module
import gcsynth.weyl as weyl_module
from gcsynth.algebra import RootImages, vector_weights
from gcsynth.errors import DegenerateTop, NoProgress
from gcsynth.states import phase_min_distance, state_fidelity
from gcsynth.weyl import M_NEGATIVE_TOL, PROGRESS_TOL, WeightStateInfo

from conftest import csa_part, cw_coefficients, expi_hermitian, reflect_by_states, root_su2


def _csa_coeffs(algebra, gamma):
    return cw_coefficients(algebra, gamma, np.zeros(algebra.cartan_weyl.num_roots_L))


# ---------------------------------------------------------------------------
# top_weight_state
# ---------------------------------------------------------------------------

def test_top_su2_positive_gamma(su2_half):
    info = top_weight_state(_csa_coeffs(su2_half, [1.0]), su2_half)
    assert state_fidelity(info.state, [1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
    assert info.weights @ [1.0] == pytest.approx(1.0)


def test_top_su2_negative_gamma(su2_half):
    info = top_weight_state(_csa_coeffs(su2_half, [-1.0]), su2_half)
    assert state_fidelity(info.state, [0.0, 1.0]) == pytest.approx(1.0, abs=1e-12)


def test_top_so4_matches_brute_force(so4):
    rng = np.random.default_rng(15)
    csa_ops = so4.csa_ops
    for _ in range(10):
        gamma = rng.standard_normal(2)
        f = np.einsum("r,rij->ij", gamma, csa_ops)
        evals, evecs = np.linalg.eigh(f)
        if evals[-1] - evals[-2] < 1e-3:
            continue
        info = top_weight_state(_csa_coeffs(so4, gamma), so4)
        assert info.weights @ gamma == pytest.approx(evals[-1], abs=1e-12)
        assert state_fidelity(info.state, evecs[:, -1]) == pytest.approx(1.0, abs=1e-12)


def test_degenerate_top_raises(so4):
    # gamma = (1, 0): Z_1 alone has a two-fold top eigenvalue on the 4-dim rep.
    with pytest.raises(DegenerateTop):
        top_weight_state(_csa_coeffs(so4, [1.0, 0.0]), so4)


def test_top_ignores_root_entries(catalog_algebras, su3):
    # Only the CSA entries of c are read: zeroing the root entries changes nothing.
    rng = np.random.default_rng(17)
    for algebra in catalog_algebras + [su3]:
        for _ in range(5):
            coeffs = rng.standard_normal(algebra.dim)
            info = top_weight_state(coeffs, algebra)
            projected = top_weight_state(csa_part(coeffs, algebra), algebra)
            assert np.array_equal(info.state, projected.state)
            assert np.array_equal(info.weights, projected.weights)


# ---------------------------------------------------------------------------
# reflect_to_highest_weight
# ---------------------------------------------------------------------------

def test_already_highest_weight_empty(su2_half):
    info = top_weight_state(_csa_coeffs(su2_half, [1.0]), su2_half)
    assert reflect_to_highest_weight(info, su2_half) == []


def test_su2_lowest_weight_single_reflection(su2_half):
    info = top_weight_state(_csa_coeffs(su2_half, [-1.0]), su2_half)
    ops = reflect_to_highest_weight(info, su2_half)
    assert len(ops) == 1
    hw, _ = highest_weight_state(su2_half)
    prepared = apply_circuit(hw, ops, su2_half)
    assert state_fidelity(prepared, info.state) == pytest.approx(1.0, abs=1e-10)


def test_so6_even_orbit_reaches_vacuum(so6):
    # All weight states in the orbit of the vacuum (even number of spin
    # flips) must reach |hw> in at most 4L reflections; odd-sector weight
    # states are outside the orbit and must raise NoProgress.
    csa_ops = so6.csa_ops
    hw, w_hw = highest_weight_state(so6)
    num_roots = so6.cartan_weyl.num_roots_L
    for bits in itertools.product((0, 1), repeat=3):
        index = bits[0] * 4 + bits[1] * 2 + bits[2]
        state = np.zeros(8, dtype=complex)
        state[index] = 1.0
        weights = np.array([np.real(np.vdot(state, h @ state)) for h in csa_ops])
        info = WeightStateInfo(state=state, weights=weights)
        if sum(bits) % 2 == 0:
            ops = reflect_to_highest_weight(info, so6)
            assert len(ops) <= 4 * num_roots
            prepared = apply_circuit(hw, ops, so6)
            assert phase_min_distance(prepared, state) < 1e-9
        else:
            with pytest.raises(NoProgress):
                reflect_to_highest_weight(info, so6)


def test_reflections_preserve_weight_states(so4):
    # Each emitted reflection maps weight states to weight states.
    csa_ops = so4.csa_ops
    state = np.zeros(4, dtype=complex)
    state[3] = 1.0  # |11>: weights (-1, -1), the lowest in the even sector
    weights = np.array([np.real(np.vdot(state, h @ state)) for h in csa_ops])
    info = WeightStateInfo(state=state, weights=weights)
    ops = reflect_to_highest_weight(info, so4)
    hw, _ = highest_weight_state(so4)
    # Walk the preparation segment; every intermediate must be a CSA eigenvector.
    current = hw
    for op in ops:
        current = apply_circuit(current, [op], so4)
        for h in csa_ops:
            hv = h @ current
            w = np.real(np.vdot(current, hv))
            assert np.linalg.norm(hv - w * current) < 1e-9
    assert phase_min_distance(current, state) < 1e-9


def test_progress_functional_increases(so6):
    # <state|F_hw|state> is non-decreasing and strictly increases overall.
    csa_ops = so6.csa_ops
    hw, w_hw = highest_weight_state(so6)
    f_hw = np.einsum("r,rij->ij", w_hw, csa_ops)
    state = np.zeros(8, dtype=complex)
    state[6] = 1.0  # |110>: even sector, weights (-1, -1, +1)
    weights = np.array([np.real(np.vdot(state, h @ state)) for h in csa_ops])
    info = WeightStateInfo(state=state, weights=weights)
    ops = reflect_to_highest_weight(info, so6)
    # Replay in the forward direction (toward hw): progress at every step.
    current = state
    value = np.real(np.vdot(current, f_hw @ current))
    for op in reversed(ops):
        current = apply_circuit(current, [GroupOp(op.root_index, -op.alpha)], so6)
        new_value = np.real(np.vdot(current, f_hw @ current))
        assert new_value >= value + 1e-10
        value = new_value


def test_not_a_weight_state_rejected(su2_half):
    # The walk reads the weights it is given; the closing fidelity check
    # refuses a state the chosen reflections do not carry to |hw>.
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    info = WeightStateInfo(state=plus, weights=np.array([0.0]))
    with pytest.raises(NoProgress):
        reflect_to_highest_weight(info, su2_half)


def test_nan_state_rejected(so4):
    # NaN compares False both ways; it must not read as |hw>.
    state = np.array(so4.highest_weight[0])
    state[1] = np.nan
    info = WeightStateInfo(state=state, weights=so4.highest_weight[1])
    with pytest.raises(NoProgress):
        reflect_to_highest_weight(info, so4)


@pytest.fixture(scope="module")
def walk_algebras(su2_half, su2_one, su2_threehalf, so4, so6, so8, su3):
    return [su2_half, su2_one, su2_threehalf, make_su2(4), so4, so6, so8,
            make_so2n(5), make_so2n(6), su3]


def _weight_infos(algebra):
    vectors, weight_table = algebra.weight_basis
    return [WeightStateInfo(state=vectors[:, i], weights=weight_table[i])
            for i in range(vectors.shape[1])]


def _walk(walker, info, algebra):
    try:
        return [(op.root_index, op.alpha) for op in walker(info, algebra)]
    except NoProgress as exc:
        return type(exc)


def test_weight_table_rows_equal_measured_weights(walk_algebras):
    # The walk starts from the weight-table row instead of measuring the
    # state's weights: for every weight-table vector the two agree bit for
    # bit, so no reflection choice and no artifact moves.
    for algebra in walk_algebras:
        for info in _weight_infos(algebra):
            assert np.array_equal(vector_weights(info.state, algebra), info.weights), \
                algebra.name


def test_weight_walk_matches_state_walk(walk_algebras):
    # The weight-space walk emits exactly the reflections of the oracle that
    # rotates the state and re-measures its weights for every candidate.
    walks = 0
    for algebra in walk_algebras:
        for info in _weight_infos(algebra):
            expected = _walk(reflect_by_states, info, algebra)
            assert _walk(reflect_to_highest_weight, info, algebra) == expected
            walks += isinstance(expected, list) and len(expected) > 0
    assert walks > 50


def _scalar_walk(weights, algebra):
    """The roots `reflect_to_highest_weight` chooses from `weights`, each
    candidate scored in its own Python step by the key (overlap gain, height
    gain, -l): the array walk's oracle."""
    cw = algebra.cartan_weyl
    w_hw = algebra.highest_weight[1]
    mu, etas = cw.mu_matrix, cw.etas
    w_scale = max(1.0, float(np.abs(w_hw).max()))
    applied = []
    for _ in range(4 * cw.num_roots_L + 1):
        m_vals = mu @ weights / etas
        candidates = np.nonzero(m_vals < -M_NEGATIVE_TOL * w_scale)[0]
        if candidates.size == 0:
            break
        best = None
        for l in candidates:
            new_weights = weights - 4.0 * m_vals[l] * mu[l]
            overlap_gain = float(np.dot(w_hw, new_weights - weights))
            height_gain = float(np.sum(mu @ new_weights / etas) - np.sum(m_vals))
            key = (overlap_gain, height_gain, -int(l))
            if best is None or key > best[0]:
                best = (key, int(l), new_weights)
        (overlap_gain, height_gain, _), l, weights = best
        if height_gain <= PROGRESS_TOL or overlap_gain < -PROGRESS_TOL * w_scale:
            raise NoProgress("no reflection increases the weight overlap")
        applied.append(l)
    return applied


def test_array_walk_chooses_as_scalar_loop(walk_algebras, monkeypatch):
    # On every weight-table vector (so2n:4-6 among them) and on sums of table
    # rows, most outside the orbit of the highest weight and rich in tied
    # keys, the array walk chooses the per-candidate loop's roots, or both
    # raise NoProgress.  The closing fidelity check is passed, so that the
    # choice alone is compared.
    monkeypatch.setattr(weyl_module, "state_fidelity", lambda a, b: 1.0)
    rng = np.random.default_rng(97)
    chosen = 0
    for algebra in walk_algebras:
        hw, table = algebra.highest_weight[0], algebra.weight_basis[1]
        for weights in np.concatenate([table, rng.integers(-1, 2, (40, len(table))) @ table]):
            info = WeightStateInfo(hw, weights)
            try:
                expected = _scalar_walk(weights, algebra)
            except NoProgress:
                with pytest.raises(NoProgress):
                    reflect_to_highest_weight(info, algebra)
                continue
            ops = reflect_to_highest_weight(info, algebra)
            assert [op.root_index for op in reversed(ops)] == expected, algebra.name
            chosen += len(expected) > 1
    assert chosen >= 150  # walks of two or more reflections, where the choice matters


def test_reflection_acts_on_weights_in_closed_form(walk_algebras):
    # W_l maps a weight vector of weight w to one of weight w - 4 (mu_l . w / eta_l) mu_l.
    for algebra in walk_algebras:
        cw = algebra.cartan_weyl
        vectors, weight_table = algebra.weight_basis
        for l, alpha in enumerate(algebra.reflection_alphas):
            mu, eta = cw.mu_matrix[l], cw.etas[l]
            for v, w in zip(vectors.T, weight_table):
                reflected = vector_weights(cw.defining.rotate(l, alpha, v), algebra)
                assert reflected is not None
                assert np.abs(reflected - (w - 4.0 * (mu @ w / eta) * mu)).max() < 1e-12


def test_walk_rotates_once_per_emitted_reflection(so8, su3, monkeypatch):
    # Candidates are scored on weights alone: a walk emitting J reflections
    # measures no weights and rotates the state exactly J times.
    calls = {"rotate": 0, "weights": 0}
    rotate, measure = RootImages.rotate, algebra_module.vector_weights

    def counted_rotate(self, *args):
        calls["rotate"] += 1
        return rotate(self, *args)

    def counted_weights(*args):
        calls["weights"] += 1
        return measure(*args)

    monkeypatch.setattr(RootImages, "rotate", counted_rotate)
    # Built before counting: the weight basis and |hw> are cached algebra data.
    walks = [(algebra, _weight_infos(algebra), algebra.highest_weight) for algebra in (so8, su3)]
    monkeypatch.setattr(algebra_module, "vector_weights", counted_weights)
    emitted = 0
    for algebra, infos, _ in walks:
        for info in infos:
            calls.update(rotate=0, weights=0)
            try:
                ops = reflect_to_highest_weight(info, algebra)
            except NoProgress:
                continue
            assert calls == {"rotate": len(ops), "weights": 0}
            emitted += len(ops)
    assert emitted > 0


def test_reflection_alpha_magnitude(catalog_algebras):
    # |alpha| must be the pi-rotation magnitude pi / sqrt(2 eta).
    for algebra in catalog_algebras:
        for t in algebra.cartan_weyl.root_triples:
            alpha = algebra.reflection_alphas[t.root_index]
            assert abs(alpha) == pytest.approx(np.pi / np.sqrt(2.0 * t.eta), rel=1e-12)


def test_cached_reflection_alphas_flip_sz(catalog_algebras, su3):
    # Each cached exponent is a pi rotation: W^dag Sz W = -Sz.
    for algebra in catalog_algebras + [su3]:
        cw = algebra.cartan_weyl
        assert len(algebra.reflection_alphas) == cw.num_roots_L
        for l, alpha in enumerate(algebra.reflection_alphas):
            w = expi_hermitian(alpha * cw.raising_ops[l] + np.conj(alpha) * cw.lowering_ops[l])
            sz = root_su2(algebra, l)[2]
            assert np.abs(w.conj().T @ sz @ w + sz).max() < 1e-10
