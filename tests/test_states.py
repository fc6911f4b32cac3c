import warnings

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from gcsynth import (
    GroupOp,
    apply_group_op,
    assemble_algebra,
    exact_moments,
    hidden_gcs,
    highest_weight_state,
    make_so2n,
    make_su2,
    orthonormalize_basis,
    sample_all_moments,
)
from gcsynth.algebra import KERNEL_TOL, _weight_vectors
from gcsynth.errors import InvalidParameter, NotUnique, ShotCountOverflow
from gcsynth.states import _child_keys, derive_seed, phase_min_distance, state_fidelity

from conftest import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    build_half_one,
    build_half_plus_one,
    build_su3,
    sampled_moments_oracle,
)


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
        candidates = _weight_vectors(kernel, algebra)
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
# sample_all_moments
# ---------------------------------------------------------------------------

def test_deterministic_outcome(su2_half):
    # |0> is the sigma_z eigenvector of eigenvalue 1: every shot reads 1.
    zero = np.array([1.0, 0.0], dtype=complex)
    for shots in (1, 7, 1000):
        moments = sample_all_moments(zero, su2_half, shots, seed=5)
        assert moments.values[0] == pytest.approx(1.0)
        assert moments.shots == shots


def test_symmetric_observable_bounded_and_converging(su2_half):
    # On |0>, the sigma_x and sigma_y moments draw +-1 with equal weight.
    zero = np.array([1.0, 0.0], dtype=complex)
    estimates = [sample_all_moments(zero, su2_half, q, seed=17).values[1:]
                 for q in (16, 256, 4096, 65536)]
    assert all(np.abs(e).max() <= 1.0 for e in estimates)
    assert np.abs(estimates[-1]).max() < 0.02


def test_equal_seeds_equal_streams(su2_half):
    state = np.array([0.6, 0.8j], dtype=complex)
    a = sample_all_moments(state, su2_half, 1000, seed=123).values
    b = sample_all_moments(state, su2_half, 1000, seed=123).values
    assert np.array_equal(a, b)


def test_degenerate_eigenspace_pooling(so6):
    # Every so(6) observable on the 8-dim Fock space has only degenerate
    # eigenspaces, so eigh's choice of eigenvectors in each is arbitrary.  The
    # Born weight is pooled per eigenspace: a state inside one eigenspace of
    # an observable reads its outcome at every shot.
    _, outcomes, sizes, _, _ = so6.basis.measurement_basis
    assert sum(o.size for o in outcomes) == sizes.size
    assert (sizes > 1).all() and sizes.sum() == so6.dim * so6.rep_dim
    hw, weights = highest_weight_state(so6)
    values = sample_all_moments(hw, so6, 50, seed=2).values
    assert np.abs(values[list(so6.cartan_weyl.csa_indices)] - weights).max() <= 1e-12


@pytest.mark.parametrize("state", [[np.nan, 0.0], [0.0, 1j * np.nan], [np.inf, 0.0],
                                   [0.0, -np.inf], [np.inf, np.inf], [0.0, 0.0]],
                         ids=["nan", "imag-nan", "inf", "-inf", "inf-inf", "zero"])
@pytest.mark.parametrize("obs", [SIGMA_Z, SIGMA_X], ids=["sz", "sx"])
def test_non_finite_or_zero_state_is_typed(su2_half, state, obs):
    # Sampling used to raise numpy's bare ValueError (NaN) or warn (zero
    # state, infinite state).  The bad state is written in the eigenbasis of
    # `obs`, so it is rejected whichever basis its entries are given in.
    with np.errstate(all="ignore"):
        psi = np.linalg.eigh(obs)[1] @ np.array(state, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameter, match="finite and nonzero"):
            sample_all_moments(psi, su2_half, 10, seed=1)


SAMPLED_ALGEBRAS = {"su2:1": lambda: make_su2(1), "su2:2": lambda: make_su2(2),
                    "su2:3": lambda: make_su2(3), "su3": build_su3,
                    "so2n:2": lambda: make_so2n(2), "so2n:3": lambda: make_so2n(3),
                    "so2n:4": lambda: make_so2n(4), "so2n:5": lambda: make_so2n(5),
                    "half-one": build_half_one}


@pytest.mark.parametrize("name", sorted(SAMPLED_ALGEBRAS))
def test_sample_all_moments_equals_per_observable_oracle(name):
    # The cached-eigenbasis path against the per-observable sampler of conftest: bit-equal estimates, on hidden GCSs
    # and on states with uniform magnitudes.  The latter give diagonal
    # observables exactly symmetric Born distributions, where one ulp in a
    # pooled sum flips the binomial draw: pooling with np.add.reduceat
    # instead fails here on su2:3, so2n:3-5 and half-one.
    algebra = SAMPLED_ALGEBRAS[name]()
    # A seed of 2^32 and up is two 32-bit words of SeedSequence entropy, as
    # every benchmark request's seed is; a smaller seed is one.
    assert "measurement_basis" not in vars(algebra.basis)  # built on first use only
    for seed in [*range(20), 2 ** 32, 2 ** 32 + 1, 2 ** 61 + 12345, 2 ** 63, 2 ** 64 - 1]:
        phases = np.exp(2j * np.pi * np.random.default_rng(seed).random(algebra.rep_dim))
        for state in (hidden_gcs(algebra, seed=seed, num_ops=seed % 4).reference_state(),
                      phases / np.sqrt(algebra.rep_dim)):
            shots = 10 ** 6 + 7919 * (seed % 20)
            expected = sampled_moments_oracle(state, algebra, shots, seed)
            assert np.array_equal(sample_all_moments(state, algebra, shots, seed).values,
                                  expected)


def test_hoeffding_coverage(su2_half):
    # Empirical check of the concentration bound at delta = 0.05, Q = 400, on
    # the sigma_x moment of |0>.
    zero = np.array([1.0, 0.0], dtype=complex)
    shots = 400
    bound = np.sqrt(2.0 * np.log(2.0 / 0.05)) / np.sqrt(shots)
    hits = sum(
        abs(sample_all_moments(zero, su2_half, shots, seed=s).values[1]) <= bound
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


def _seed_sequence_keys(seed, count):
    return [int(np.random.SeedSequence([int(seed), m]).generate_state(1, np.uint64)[0])
            for m in range(count)]


@pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1,
                                  np.uint64(2 ** 64 - 1)])
def test_one_pass_keys_equal_seed_sequence(seed):
    # The uint32 pool arithmetic wraps silently on arrays; on a NumPy scalar it
    # would warn, which "error" turns into a failure here.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        keys = _child_keys(seed, 70)
        assert keys == _seed_sequence_keys(seed, 70)
        assert keys == [derive_seed(seed, m) for m in range(70)]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), count=st.integers(1, 70))
def test_one_pass_keys_equal_seed_sequence_on_any_seed(seed, count):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _child_keys(seed, count) == _seed_sequence_keys(seed, count)


def test_rekeyed_generator_draws_as_a_fresh_one():
    # sample_all_moments' stream switch: one generator whose key is set through
    # `bit_generator.state` from its as-built state draws what Philox(key=k) does,
    # whatever the generator drew before (a half-used buffer, a spare uint32).
    rng = np.random.Generator(np.random.Philox(key=0))
    stream = rng.bit_generator.state
    source = np.random.default_rng(29)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2000):
            key = int(source.integers(2 ** 64, dtype=np.uint64))
            probs = source.dirichlet(np.ones(int(source.integers(1, 9))))
            shots = int(source.integers(1, 10 ** 7))
            stream["state"]["key"][0] = key
            rng.bit_generator.state = stream
            fresh = np.random.Generator(np.random.Philox(key=key))
            assert np.array_equal(rng.multinomial(shots, probs), fresh.multinomial(shots, probs))
            rng.integers(2 ** 32, size=int(source.integers(0, 3)), dtype=np.uint32)


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 65 - 1, 1.0, "1", None, True, False])
def test_seed_outside_uint64_is_typed(su2_half, seed):
    # -1 and 2^64 - 1, or 2^65 - 1 and 2^64 - 1, used to name one stream;
    # True and False used to run as seeds 1 and 0.
    hw, _ = highest_weight_state(su2_half)
    with pytest.raises(InvalidParameter, match=r"seed must be an integer in \[0, 2\^64\)"):
        derive_seed(seed, 0)
    with pytest.raises(InvalidParameter):
        sample_all_moments(hw, su2_half, 10, seed)
    with pytest.raises(InvalidParameter):
        hidden_gcs(su2_half, seed=seed, num_ops=1)


def test_seeds_at_the_uint64_ends_run(su2_half):
    hw, _ = highest_weight_state(su2_half)
    for seed in (0, 2 ** 64 - 1, np.uint64(2 ** 64 - 1)):
        assert derive_seed(seed, 0) == derive_seed(int(seed), 0)
        sample_all_moments(hw, su2_half, 10, seed)
        hidden_gcs(su2_half, seed=seed, num_ops=1).sample_moments(10)


def test_phase_min_distance():
    a = np.array([1.0, 0.0], dtype=complex)
    assert phase_min_distance(a, 1j * a) < 1e-12
    b = np.array([0.0, 1.0], dtype=complex)
    assert phase_min_distance(a, b) == pytest.approx(np.sqrt(2.0))


def test_shot_count_below_one_is_typed(su2_half):
    hw, _ = highest_weight_state(su2_half)
    for shots in (0, -3):
        with pytest.raises(InvalidParameter):
            sample_all_moments(hw, su2_half, shots, seed=1)


def test_non_integer_shot_count_is_typed(su2_half):
    # 2.5 used to take 2 draws and divide by 2.5, reading +-0.8 for a +-1
    # outcome; True ran as 1 shot.
    hw, _ = highest_weight_state(su2_half)
    for shots in (2.5, 2.0, True, np.True_, float("nan"), "3"):
        with pytest.raises(InvalidParameter):
            sample_all_moments(hw, su2_half, shots, seed=1)
    moments = sample_all_moments(hw, su2_half, np.int64(3), seed=1)
    assert type(moments.shots) is int and moments.shots == 3
    assert np.array_equal(moments.values, sample_all_moments(hw, su2_half, 3, seed=1).values)


def test_shot_count_past_int64_is_typed(su2_half):
    hw, _ = highest_weight_state(su2_half)
    with pytest.raises(ShotCountOverflow):
        sample_all_moments(hw, su2_half, 2 ** 63, seed=1)


def test_negative_hidden_op_count_is_typed(su2_half):
    # 2.5 used to run 2 ops and True 1; NaN and "3" raised bare Python errors.
    for num_ops in (-1, 2.5, True, float("nan"), "3"):
        with pytest.raises(InvalidParameter):
            hidden_gcs(su2_half, seed=1, num_ops=num_ops)
