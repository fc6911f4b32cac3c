import dataclasses
import functools
import math
import re
import types
import warnings

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

import gcsynth.algebra as algebra_module
from gcsynth import (
    Algebra,
    AlgebraBasis,
    CartanWeylData,
    assemble_algebra,
    make_so2n,
    make_su2,
    build_cartan_weyl,
    orthonormalize_basis,
    validate_algebra,
)
from gcsynth.catalog import MAX_TWO_J, spin_matrices
from gcsynth.diagonalize import plan_step
from gcsynth.errors import (
    BasisNotClosed,
    CsaNotAbelian,
    GcsynthError,
    GramNotDiagonal,
    InvalidAlgebraSpec,
    KillingFormDegenerate,
    LinearlyDependentBasis,
    NonFiniteGate,
    NonHermitianInput,
    RootIndexOutOfRange,
    RootPairNotEigenvector,
    RootSpectrumIllConditioned,
    ZeroRootBracket,
)
from gcsynth.lqc import adjoint_action_of
from gcsynth.states import GroupOp, apply_group_op

from conftest import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    adjoint_coefficients,
    adjoint_gram,
    adjoint_matrices,
    build_su3,
    build_tied_top,
    commutator,
    cw_coefficients,
    expi_hermitian,
    gell_mann,
    group_op_unitary,
    root_su2,
)


def i_bracket(a, b):
    """The stored-bracket convention i(ab - ba)."""
    return 1j * (a @ b - b @ a)


# ---------------------------------------------------------------------------
# orthonormalize_basis
# ---------------------------------------------------------------------------

def test_pauli_basis_unchanged():
    basis = orthonormalize_basis([SIGMA_Z, SIGMA_X, SIGMA_Y])
    assert basis.normalization_N == pytest.approx(2.0)
    assert np.allclose(basis.basis, [SIGMA_Z, SIGMA_X, SIGMA_Y], atol=1e-14)


def test_rescaling_to_target():
    basis = orthonormalize_basis([2 * SIGMA_Z, SIGMA_X, SIGMA_Y], target_N=2.0)
    assert np.allclose(basis.basis[0], SIGMA_Z, atol=1e-14)
    assert np.allclose(basis.basis[1], SIGMA_X, atol=1e-14)


def test_gell_mann_unchanged():
    mats = gell_mann()
    # Oracle: all 64 trace pairs computed directly.
    gram = np.array([[np.trace(a @ b).real for b in mats] for a in mats])
    assert np.allclose(gram, 2.0 * np.eye(8), atol=1e-12)
    basis = orthonormalize_basis(mats)
    assert basis.normalization_N == pytest.approx(2.0)
    assert np.allclose(basis.basis, mats, atol=1e-14)


def test_non_hermitian_rejected():
    bad = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(NonHermitianInput):
        orthonormalize_basis([SIGMA_Z, bad, SIGMA_Y])


def test_non_diagonal_gram_rejected():
    with pytest.raises(GramNotDiagonal):
        orthonormalize_basis([SIGMA_Z, SIGMA_X + 0.2 * SIGMA_Z, SIGMA_Y])


def test_dependent_basis_rejected():
    with pytest.raises(LinearlyDependentBasis):
        orthonormalize_basis([SIGMA_Z, np.zeros((2, 2), dtype=complex), SIGMA_Y])


def test_each_element_norm_is_judged_on_its_own():
    # A large element beside small ones used to be refused as "zero trace
    # norm"; its power-of-two scale is undone exactly, so it assembles to
    # su2:1 bit for bit.
    big = assemble_algebra(orthonormalize_basis([2.0 ** 20 * SIGMA_Z, SIGMA_X, SIGMA_Y]),
                           csa_indices=[0], root_pairs=[(1, 2)])
    assert _fingerprint(big)[:2] == _fingerprint(make_su2(1))[:2]
    # Refused, without a warning: a zero element, one whose squares flush to
    # zero (2^-600), one whose subnormal norm cannot be rescaled (2^-540:
    # N / Tr(O^2) overflows), one whose norm overflows (2^600), and a uniform
    # basis whose common norm N overflows.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (0.0, 2.0 ** -600, 2.0 ** -540, 2.0 ** 600):
            for target in (None, 2.0):
                with pytest.raises(LinearlyDependentBasis, match="basis element 0"):
                    orthonormalize_basis([scale * SIGMA_Z, SIGMA_X, SIGMA_Y], target)
        with pytest.raises(LinearlyDependentBasis):
            orthonormalize_basis([2.0 ** 511 * m for m in (SIGMA_Z, SIGMA_X, SIGMA_Y)])


# ---------------------------------------------------------------------------
# structure constants and the adjoint representation
# ---------------------------------------------------------------------------

def test_su2_structure_constants():
    basis = orthonormalize_basis([SIGMA_Z, SIGMA_X, SIGMA_Y])
    f = basis.structure_constants
    # Oracle: i[s_z, s_x] = -2 s_y etc., computed from the 2x2 matrices.
    assert np.allclose(i_bracket(SIGMA_Z, SIGMA_X), -2.0 * SIGMA_Y, atol=1e-14)
    nonzero = np.abs(f) > 1e-12
    assert nonzero.sum() == 6  # single orbit of index triples
    assert np.allclose(np.abs(f[nonzero]), 2.0, atol=1e-12)
    assert np.allclose(f, -np.transpose(f, (1, 0, 2)), atol=1e-12)


def test_abelian_input_rejected():
    with pytest.raises(KillingFormDegenerate):
        orthonormalize_basis([SIGMA_Z, np.eye(2, dtype=complex)])


def test_not_closed_rejected():
    # s_z and s_x alone bracket into s_y, which is outside the span.
    with pytest.raises(BasisNotClosed):
        orthonormalize_basis([SIGMA_Z, SIGMA_X])


def test_so4_adjoint_homomorphism(so4, catalog_algebras, su3, half_one):
    # The adjoint images obey the stored bracket, pair by pair: so(4) first,
    # then the rest of the catalog, su(3) and su(2) + su(2) on spin 1/2 x 1.
    # Assembly does not check this (closure implies it); a sign error in
    # `_adjoint_from_constants` fails here.
    for algebra in [so4] + catalog_algebras + [su3, half_one]:
        f = np.asarray(algebra.basis.structure_constants)
        adj = adjoint_matrices(algebra)
        for m in range(algebra.dim):
            for n in range(algebra.dim):
                lhs = np.einsum("k,kij->ij", f[m, n], adj)
                rhs = i_bracket(adj[m], adj[n])
                denom = max(1.0, np.linalg.norm(adj[m]) * np.linalg.norm(adj[n]))
                assert np.linalg.norm(lhs - rhs) <= 1e-9 * denom


def test_adjoint_orthogonality(catalog_algebras):
    # Simple algebras: the adjoint Gram is a multiple of delta.
    for algebra in catalog_algebras:
        gram = adjoint_gram(algebra)
        n_adj = np.trace(gram) / algebra.dim
        assert n_adj > 0
        assert np.abs(gram - n_adj * np.eye(algebra.dim)).max() <= 1e-9 * n_adj


def test_adjoint_gram_is_minus_killing_form(catalog_algebras, su3, half_one):
    # Tr(adj_m adj_m') = -K[m, m'] on every algebra; on su(2) + su(2) in
    # spin 1/2 x spin 1 it is one multiple of delta per ideal, not one overall.
    for algebra in catalog_algebras + [su3, half_one]:
        kill = np.asarray(algebra.basis.killing_form)
        assert np.abs(adjoint_gram(algebra) + kill).max() <= 1e-12 * np.abs(kill).max()
    ideals = np.diag(adjoint_gram(half_one)).reshape(2, 3)
    assert np.allclose(ideals, ideals[:, :1], rtol=1e-12)
    assert ideals[0, 0] / ideals[1, 0] == pytest.approx(4.0 / 1.5, rel=1e-12)


# ---------------------------------------------------------------------------
# build_cartan_weyl
# ---------------------------------------------------------------------------

def test_su2_raising_is_sigma_plus(su2_half):
    sigma_plus = (SIGMA_X + 1j * SIGMA_Y) / 2.0
    assert np.allclose(su2_half.cartan_weyl.raising_ops[0], sigma_plus, atol=1e-14)
    assert su2_half.cartan_weyl.rank_R == 1
    assert su2_half.cartan_weyl.num_roots_L == 1


def test_su3_rank_and_roots(su3):
    assert su3.cartan_weyl.rank_R == 2
    assert su3.cartan_weyl.num_roots_L == 3


def test_so6_rank_and_roots(so6):
    assert so6.cartan_weyl.rank_R == 3
    assert so6.cartan_weyl.num_roots_L == 6
    assert so6.rep_dim == 8


def test_csa_not_abelian_rejected():
    mats = gell_mann()
    # l3 at 0 and l1 at 2 do not commute; declaring both as CSA must fail.
    basis = orthonormalize_basis([mats[2], mats[7], mats[0], mats[3], mats[5],
                                  mats[1], mats[4], mats[6]])
    with pytest.raises(CsaNotAbelian):
        build_cartan_weyl(basis, csa_indices=[0, 2],
                          root_pairs=[(1, 5), (3, 6), (4, 7)])


def test_root_pair_not_eigenvector():
    mats = gell_mann()
    # Mislabel: swap one x-partner with a partner of a different root.
    basis = orthonormalize_basis([mats[2], mats[7], mats[0], mats[3], mats[5],
                                  mats[4], mats[1], mats[6]])
    with pytest.raises(RootPairNotEigenvector):
        build_cartan_weyl(basis, csa_indices=[0, 1],
                          root_pairs=[(2, 5), (3, 6), (4, 7)])


def test_commuting_root_pair_has_zero_bracket():
    # su(2)^3 on three qubits, CSA {Z x I x I} only: Z2 and Z3 commute with it,
    # so the pair (3, 6) passes as an ad-eigenvector, but [E+, E-] = 0.
    def site(pauli, k):
        ops = [np.eye(2)] * 3
        ops[k] = pauli
        return np.kron(np.kron(ops[0], ops[1]), ops[2])

    basis = orthonormalize_basis([site(p, k) for k in range(3)
                                  for p in (SIGMA_Z, SIGMA_X, SIGMA_Y)])
    with pytest.raises(ZeroRootBracket, match="root 3"):
        build_cartan_weyl(basis, csa_indices=[0],
                          root_pairs=[(1, 2), (4, 5), (7, 8), (3, 6)])


# ---------------------------------------------------------------------------
# root triples
# ---------------------------------------------------------------------------

def test_su2_triple_frozen_values(su2_half):
    t = su2_half.cartan_weyl.root_triples[0]
    # Oracle: Z = [s+, s-] = s_z, [Z, s+] = 2 s+ from 2x2 commutators.
    assert np.allclose(t.mu, [1.0], atol=1e-12)
    assert t.eta == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(root_su2(su2_half, 0)[2], SIGMA_Z / 2.0, atol=1e-12)


def test_spin1_triple_matches_spin_half(su2_one):
    # Same abstract algebra in a 3-dim rep: mu and eta are rep-independent.
    t = su2_one.cartan_weyl.root_triples[0]
    assert np.allclose(t.mu, [1.0], atol=1e-10)
    assert t.eta == pytest.approx(2.0, abs=1e-10)


def test_so4_roots_supported_on_both_csa(so4):
    # Oracle: expand Z_l = [E+, E-] over H_r by trace projection.
    for t in so4.cartan_weyl.root_triples:
        assert np.abs(t.mu).min() > 0.5


def test_recompute_matches_stored(so6):
    cw = so6.cartan_weyl
    triples = build_cartan_weyl(so6.basis, cw.csa_indices, cw.pair_map).root_triples
    for fresh, stored in zip(triples, so6.cartan_weyl.root_triples):
        assert np.allclose(fresh.mu, stored.mu, atol=1e-12)
        assert fresh.eta == pytest.approx(stored.eta, abs=1e-12)


def test_su2_relations_all_catalog_roots(catalog_algebras):
    for algebra in catalog_algebras:
        for t in algebra.cartan_weyl.root_triples:
            s_plus, s_minus, s_z = root_su2(algebra, t.root_index)
            assert np.abs(commutator(s_plus, s_minus) - s_z).max() < 1e-10
            assert np.abs(commutator(s_z, s_plus) - s_plus).max() < 1e-10
            assert np.abs(commutator(s_z, s_minus) + s_minus).max() < 1e-10
            assert t.eta > 0


def _dense_root_data(algebra):
    """Oracle on the defining rep: mu by trace projection of E+ E- - E- E+ onto
    each H_r, and the eta solving [Z, E+] = eta E+ in least squares."""
    cw = algebra.cartan_weyl
    mus, etas = [], []
    for e_plus, e_minus in zip(cw.raising_ops, cw.lowering_ops):
        z = e_plus @ e_minus - e_minus @ e_plus
        mus.append(np.einsum("ij,rji->r", z, algebra.csa_ops).real / algebra.norm)
        etas.append(np.vdot(e_plus, z @ e_plus - e_plus @ z).real
                    / np.vdot(e_plus, e_plus).real)
    return np.array(mus), np.array(etas)


def test_root_data_matches_dense_oracle(monomial_algebras, su2_one, su2_threehalf):
    # su2:1-3, su(3) and so2n:2-6: mu and eta read from f against dense products.
    for algebra in monomial_algebras + [su2_one, su2_threehalf]:
        cw = algebra.cartan_weyl
        mu, etas = _dense_root_data(algebra)
        assert np.abs(cw.mu_matrix - mu).max() <= 1e-14, algebra.name
        assert np.abs(cw.etas - etas).max() <= 1e-14, algebra.name
        for l, t in enumerate(cw.root_triples):
            assert t.root_index == l
            assert np.array_equal(t.mu, cw.mu_matrix[l]) and t.eta == cw.etas[l]


# ---------------------------------------------------------------------------
# validate_algebra
# ---------------------------------------------------------------------------

def _failing_rows(algebra):
    return [row for row in validate_algebra(algebra.basis, algebra.cartan_weyl)
            if not row[1] <= row[2]]


def test_valid_su2_report_clean(su2_half):
    assert _failing_rows(su2_half) == []


def test_abelian_pair_fails_killing():
    with pytest.raises(KillingFormDegenerate):
        AlgebraBasis([SIGMA_Z, np.eye(2, dtype=complex)])


def test_validation_reports_all_catalog(catalog_algebras, half_one):
    for algebra in catalog_algebras + [half_one]:
        assert _failing_rows(algebra) == [], algebra.name


def test_validation_makes_no_eigendecomposition(so6, monkeypatch):
    # The rows are read from the figures construction cached: no
    # eigensolver runs, and neither f nor the matrices are read.
    calls = []
    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, functools.partial(
            lambda fn, *args, **kwargs: calls.append(args) or fn(*args, **kwargs),
            getattr(np.linalg, name)))
    basis, cw = so6.basis, so6.cartan_weyl
    cached = types.SimpleNamespace(**{name: getattr(basis, name) for name in (
        "hermiticity", "orthogonality", "closure", "normalization_N")})
    rows = validate_algebra(cached, types.SimpleNamespace(basis=cached,
                                                          root_residuals=cw.root_residuals))
    assert rows == validate_algebra(basis, cw) and calls == []
    assert [check for check, _, _ in rows] == [
        "basis hermiticity", "trace orthogonality Tr(O_m O_m') = N delta",
        "brackets close over the basis", "CSA generators commute",
        "root pairs are CSA ad-eigenvectors", "[E+, E-] lies in the CSA"]


def test_report_reads_the_figures_construction_raised_on(su3, so6):
    # The report's rows are the residuals construction tested; the root rows
    # and mu . lam = eta are round-off, as f is antisymmetric.
    for algebra in (su3, so6):
        basis, cw = algebra.basis, algebra.cartan_weyl
        rows = {check: (residual, tol) for check, residual, tol in validate_algebra(basis, cw)}
        mats = np.asarray(basis.basis)
        gram = np.einsum("mij,nji->mn", mats, mats).real
        oracle = np.abs(gram - algebra.norm * np.eye(algebra.dim)).max()
        assert rows["basis hermiticity"] == basis.hermiticity
        assert rows["trace orthogonality Tr(O_m O_m') = N delta"][0] == basis.orthogonality
        assert abs(basis.orthogonality - oracle) <= 1e-14 * algebra.norm
        assert rows["brackets close over the basis"][0] == basis.closure[0]
        assert [rows[check][0] for check in ("CSA generators commute",
                                             "root pairs are CSA ad-eigenvectors",
                                             "[E+, E-] lies in the CSA")] \
            == list(cw.root_residuals)
        assert max(cw.root_residuals[1:]) <= 1e-14
        u, v = cw.pair_indices
        lam = basis.structure_constants[np.ix_(cw.csa_indices, v)][:, np.arange(len(u)), u].T
        assert np.abs(np.einsum("lr,lr->l", cw.mu_matrix, lam) / cw.etas - 1.0).max() <= 1e-14
    with pytest.raises(InvalidAlgebraSpec, match="another basis"):
        validate_algebra(su3.basis, so6.cartan_weyl)


def test_identities_that_hold_by_construction(catalog_algebras, su3, half_one):
    # Neither construction nor the report checks these: each follows from
    # what construction does check.  f is a trace of products of Hermitian
    # matrices, so it is antisymmetric under any swap of indices, and with
    # lam[l, r] = f[r, v, u] = 2 mu[l, r] each root's mu . lam = eta; the
    # defining images reproduce their partner pair; the labels partition M.
    for algebra in catalog_algebras + [su3, half_one]:
        f, cw = algebra.basis.structure_constants, algebra.cartan_weyl
        scale = 1.0 + np.abs(f).max()
        for axes in ((1, 0, 2), (2, 1, 0), (0, 2, 1)):
            assert np.abs(f + np.transpose(f, axes)).max() <= 1e-12 * scale, algebra.name
        mats = np.asarray(algebra.basis.basis)
        u, v = cw.pair_indices
        e_plus, e_minus = cw.raising_ops, cw.lowering_ops
        tol = 1e-14 * (1.0 + np.abs(mats).max())
        assert np.abs(mats[u] - (e_plus + e_minus)).max() <= tol, algebra.name
        assert np.abs(mats[v] - 1j * (e_minus - e_plus)).max() <= tol, algebra.name
        lam = f[np.ix_(cw.csa_indices, v)][:, np.arange(len(u)), u].T
        assert np.abs(np.einsum("lr,lr->l", cw.mu_matrix, lam) / cw.etas - 1.0).max() \
            <= 1e-14, algebra.name
        assert cw.num_roots_L == (algebra.dim - cw.rank_R) / 2, algebra.name


def test_constructors_take_no_derived_data(su3):
    # f, mu, eta, the dimensions and the adjoint images are derived: no
    # constructor takes them, none can be set, and `replace` rebuilds.
    basis, cw = su3.basis, su3.cartan_weyl
    raw, csa, pairs = list(basis.basis), cw.csa_indices, cw.pair_map
    for name, value in (("structure_constants", basis.structure_constants),
                        ("dim_M", 8), ("rep_dim", 3), ("normalization_N", 2.0)):
        with pytest.raises(TypeError):
            AlgebraBasis(raw, **{name: value})
    for name in ("mu_matrix", "etas", "rank_R", "num_roots_L", "defining", "pair_map"):
        with pytest.raises(TypeError):
            CartanWeylData(basis, csa, pairs, **{name: getattr(cw, name)})
    for name, value in (("adjoint", su3.adjoint), ("basis", basis)):
        with pytest.raises(TypeError):
            Algebra(cw, **{name: value})
    for obj, name in ((basis, "structure_constants"), (cw, "etas"), (su3, "cartan_weyl")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, None)
    with pytest.raises(ValueError):
        dataclasses.replace(cw, etas=cw.etas * 2.0)
    for bad in (None, raw):
        with pytest.raises(InvalidAlgebraSpec):
            CartanWeylData(bad, csa, pairs)
        with pytest.raises(InvalidAlgebraSpec):
            Algebra(bad)


def test_nan_basis_entry_fails_validation_before_rotation_spectra(su2_half, monkeypatch):
    # A NaN entry is refused where the basis is made, before any
    # eigensolver, product or warning.
    mats = np.array(su2_half.basis.basis)
    mats[1, 0, 1] = np.nan
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *args: calls.append(args))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidAlgebraSpec, match="finite"):
            AlgebraBasis(mats)
    assert calls == []


def test_each_bracket_check_runs_once_per_assembly(monkeypatch):
    # Each check runs once per assembly, on the path the basis selects: the
    # monomial kernel for su(3), dense BLAS for spin-1 su(2), whose Jx has
    # two nonzeros in its middle row.  One bracket pass gives f and closure.
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("_dense_brackets", "_monomial_brackets", "_root_residuals",
                 "hermiticity_residual", "trace_gram", "_is_monomial"):
        monkeypatch.setattr(algebra_module, name, counting(name, getattr(algebra_module, name)))
    once = ["_root_residuals", "hermiticity_residual", "trace_gram", "_is_monomial"]
    build_su3()
    assert sorted(calls) == sorted(once + ["_monomial_brackets"])
    calls.clear()
    make_su2(2)
    assert sorted(calls) == sorted(once + ["_dense_brackets"])


_MUTABLE_ALGEBRAS = {
    "su2:1": lambda: make_su2(1),
    "su3": build_su3,
    "so2n:3": lambda: make_so2n(3),
}


@functools.cache
def _parent(name):
    """(raw basis, N, csa, pairs) of a catalog algebra, and the fingerprint of
    the algebra they assemble into."""
    algebra = _MUTABLE_ALGEBRAS[name]()
    cw = algebra.cartan_weyl
    raw, norm, csa, pairs = list(algebra.basis.basis), algebra.norm, cw.csa_indices, cw.pair_map
    return (raw, norm, csa, pairs), _fingerprint(
        assemble_algebra(orthonormalize_basis(raw, norm), csa, pairs))


def _fingerprint(algebra):
    """Every array an assembled algebra derives, as bytes, with its labels."""
    cw = algebra.cartan_weyl
    arrays = (algebra.basis.basis, algebra.basis.structure_constants, cw.mu_matrix, cw.etas,
              cw.raising_ops, algebra.adjoint.raising)
    return ([np.asarray(a).tobytes() for a in arrays],
            algebra.norm, cw.csa_indices, cw.pair_map)


def _mutated_raw(draw, raw):
    """raw with one element scaled by 0 or a power of two, one entry moved by
    at least 1e-6 or made NaN or infinite, or one element non-Hermitian."""
    raw = [np.array(m) for m in raw]
    k = draw(st.integers(0, len(raw) - 1))
    dim = len(raw[0])
    kind = draw(st.sampled_from(["scale", "perturb", "non-finite", "non-hermitian"]))
    if kind == "scale":
        raw[k] = raw[k] * draw(st.just(0.0) | st.integers(-1100, 1023).map(
            lambda e: math.ldexp(1.0, e)))
    elif kind == "perturb":
        i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        raw[k][i, j] += draw(st.floats(1e-6, 1e3)) * draw(st.sampled_from([1, -1, 1j, -1j]))
    elif kind == "non-finite":
        i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        raw[k][i, j] = draw(st.sampled_from([np.nan, np.inf, -np.inf, complex(0, np.inf)]))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        raw[k] = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return raw


def _mutated_labels(draw, csa, pairs):
    """csa and pairs with one label replaced, dropped or added, or one pair resized."""
    labels = [list(csa), [list(p) for p in pairs]]
    which = draw(st.integers(0, 1))
    kind = draw(st.sampled_from(["replace", "drop", "add", "resize"]))
    value = draw(st.integers(-3, 2 * len(csa) + 2 * len(pairs) + 2)
                 | st.sampled_from([1.0, 1.5, "1", None, True, np.int64(1)]))
    target = labels[which]
    if kind == "resize":
        pair = draw(st.sampled_from(labels[1]))
        pair.append(value) if draw(st.booleans()) else pair.pop()
    elif kind == "drop":
        target.pop(draw(st.integers(0, len(target) - 1)))
    elif kind == "add":
        target.append(value if which == 0 else [value, value])
    elif which == 0:
        target[draw(st.integers(0, len(target) - 1))] = value
    else:
        draw(st.sampled_from(target))[draw(st.integers(0, 1))] = value
    return labels


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(_MUTABLE_ALGEBRAS)), data=st.data())
def test_construction_cannot_be_bypassed(name, data):
    # One mutation of a valid raw basis or of its labels yields the parent
    # algebra bit for bit or a typed error, never a warning or another
    # algebra.  Scaling by a power of two is undone exactly by the rescaling.
    (raw, norm, csa, pairs), expected = _parent(name)
    if data.draw(st.booleans()):
        raw = _mutated_raw(data.draw, raw)
    else:
        csa, pairs = _mutated_labels(data.draw, csa, pairs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            algebra = assemble_algebra(orthonormalize_basis(raw, target_N=norm), csa, pairs)
        except GcsynthError:
            return
    assert _fingerprint(algebra) == expected


# ---------------------------------------------------------------------------
# Monomial kernel against the dense BLAS oracle
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def monomial_algebras(su2_half, su3):
    return [su2_half, su3] + [make_so2n(n) for n in range(2, 7)]


def test_row_sparse_matches_dense_oracle(monomial_algebras):
    # The closed basis has round-off residuals; a non-closed subset of it,
    # or rescaled elements (f is then no projection), give larger ones whose
    # worst pair both kernels must name alike.  Rescaling by up to s lets the
    # summed terms outgrow f and the residual by up to s^2, and the rounding
    # of both kernels with them, so only that input has scaled bounds.
    rng = np.random.default_rng(7)
    for algebra in monomial_algebras:
        mats, norm = np.asarray(algebra.basis.basis), algebra.norm
        assert algebra_module._is_monomial(mats), algebra.name
        subset = mats[np.sort(rng.choice(np.arange(1, algebra.dim), max(2, algebra.dim // 2),
                                         replace=False))]
        scale = rng.uniform(0.5, 2.0, algebra.dim)
        rescaled = scale[:, None, None] * mats
        for case in (mats, subset, rescaled):
            f_dense, (oracle, oracle_pair) = algebra_module._dense_brackets(case, norm)
            f_mono, (value, pair) = algebra_module._monomial_brackets(case, norm)
            units = scale.max() ** 2 if case is rescaled else 1.0
            f_bound = units * max(1.0, np.abs(f_dense).max()) if case is rescaled else 1.0
            assert np.abs(f_mono - f_dense).max() <= 1e-15 * f_bound, algebra.name
            assert abs(value - oracle) <= 1e-15 * units * max(1.0, oracle), algebra.name
            if case is mats:
                assert oracle <= 1e-15, algebra.name
                continue
            assert oracle > algebra_module.CLOSURE_TOL, algebra.name
            tied = _tied_worst_pairs(case, f_dense)
            assert {pair, oracle_pair} <= tied, algebra.name
            if len(tied) == 1:
                assert pair == oracle_pair, algebra.name


def test_row_sparse_residual_reports_nan_as_worst(su3):
    # A NaN in O_3 makes every bracket with O_3 NaN; the dense traces spread
    # it further (NaN times 0).  Either way a NaN residual is the worst, and
    # the monomial kernel names the first pair that holds O_3.
    mats = np.array(su3.basis.basis)
    mats[3, 0, 2] = np.nan
    assert algebra_module._is_monomial(mats)
    _, (oracle, _) = algebra_module._dense_brackets(mats, su3.norm)
    _, (value, pair) = algebra_module._monomial_brackets(mats, su3.norm)
    assert np.isnan(oracle) and np.isnan(value) and pair == (0, 3)


def test_so2n_builds_make_no_dense_bracket_pass(monkeypatch):
    dense = []
    monkeypatch.setattr(algebra_module, "_dense_brackets",
                        lambda *args: dense.append(args) or None)
    for n in range(2, 7):
        assert algebra_module._is_monomial(make_so2n(n).basis.basis)
    assert dense == []


_PAULI_BASES = {
    "su2:1": lambda: [SIGMA_Z, SIGMA_X, SIGMA_Y],
    "so2n:2": lambda: list(make_so2n(2).basis.basis),
    "so2n:3": lambda: list(make_so2n(3).basis.basis),
}


def _assemble_basis(mats, dense):
    """(structure constants, None) or (None, (error type, message))."""
    with pytest.MonkeyPatch.context() as patch:
        if dense:
            patch.setattr(algebra_module, "_is_monomial", lambda mats: False)
        try:
            basis = orthonormalize_basis(mats)
        except GcsynthError as exc:
            return None, (type(exc), str(exc))
    assert algebra_module._is_monomial(basis.basis)
    return np.asarray(basis.structure_constants), None


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_PAULI_BASES)), data=st.data())
def test_row_sparse_and_dense_paths_agree(name, data):
    # Random subsets of a monomial basis, conjugated by a random signed
    # permutation: the same f from both paths, or the same typed error.
    elements = _PAULI_BASES[name]()
    dim = len(elements[0])
    chosen = data.draw(st.lists(st.integers(0, len(elements) - 1), min_size=2,
                                max_size=len(elements), unique=True))
    order = data.draw(st.permutations(range(dim)))
    signs = data.draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=dim, max_size=dim))
    perm = np.eye(dim)[list(order)] * np.array(signs)[:, None]
    mats = [perm @ elements[i] @ perm.T for i in sorted(chosen)]
    f_dense, error_dense = _assemble_basis(mats, dense=True)
    f_sparse, error_sparse = _assemble_basis(mats, dense=False)
    if error_dense is None:
        assert error_sparse is None
        assert np.abs(f_sparse - f_dense).max() <= 1e-15
        # The subset is a Lie algebra: on the sparse f, ad is a homomorphism,
        # [ad O_a, ad O_b] = sum_k f[a, b, k] ad O_k with ad O_a[k, m] = f[a, m, k].
        ad = np.transpose(f_sparse, (0, 2, 1))
        bracket = np.einsum("aij,bjk->abik", ad, ad)
        expansion = np.einsum("abk,kij->abij", f_sparse, ad)
        assert np.abs(bracket - np.swapaxes(bracket, 0, 1) - expansion).max() \
            <= 1e-12 * max(1.0, np.abs(f_sparse).max() ** 2)
        return
    assert error_sparse is not None and error_sparse[0] is error_dense[0]
    if error_dense[0] is not BasisNotClosed:
        assert error_sparse[1] == error_dense[1]
        return
    # Both name the worst pair, with its residual to three digits.  Pairs
    # related by a symmetry of the basis tie up to round-off, which either
    # path may break either way; any pair tying the worst is the worst.
    named = [re.fullmatch(r"\[O_(\d+), O_(\d+)\] leaves the basis span \((.*)\)", message)
             for _, message in (error_dense, error_sparse)]
    assert named[0].group(3) == named[1].group(3)
    mats = np.array(mats)
    norm = np.trace(mats[0] @ mats[0]).real
    tied = _tied_worst_pairs(mats, algebra_module._dense_brackets(mats, norm)[0])
    assert {tuple(int(g) for g in match.groups()[:2]) for match in named} <= tied


def _tied_worst_pairs(mats, f):
    """Pairs m < n whose closure residual is within 1e-12 of the worst, a row of
    pairs at a time by the i_bracket oracle on the dense f."""
    flat = mats.reshape(len(mats), -1)
    norms = np.linalg.norm(flat, axis=1)
    resid = {}
    for m in range(len(mats) - 1):
        rest = slice(m + 1, None)
        expansion = (f[m, rest] @ flat).reshape(mats[rest].shape)
        values = np.linalg.norm(i_bracket(mats[m], mats[rest]) - expansion, axis=(1, 2)) \
            / np.maximum(1.0, norms[m] * norms[rest])
        resid.update(((m, m + 1 + j), value) for j, value in enumerate(values))
    worst = max(resid.values())
    return {pair for pair, value in resid.items() if value >= worst - 1e-12}


@pytest.mark.parametrize("csa, pairs", [
    ([7], [(1, 2)]), ([-3], [(1, 2)]), ([0], [(1, 1)]), ([], [(0, 1)]), ([0, 1, 2], []),
    ([0], [(True, 2)]), ([False], [(1, 2)]), ([0], [(1, np.True_)]),
], ids=["csa-7", "csa-negative", "pair-repeat", "csa-empty", "roots-empty",
        "pair-true", "csa-false", "pair-numpy-true"])
def test_bad_labels_are_typed(csa, pairs):
    # True and False used to stand for labels 1 and 0 and assemble su(2).
    basis = orthonormalize_basis([SIGMA_Z, SIGMA_X, SIGMA_Y])
    with pytest.raises(InvalidAlgebraSpec):
        build_cartan_weyl(basis, csa, pairs)


def test_bad_basis_shapes_are_typed():
    with pytest.raises(InvalidAlgebraSpec):
        orthonormalize_basis([SIGMA_Z, np.eye(3), SIGMA_Y])
    with pytest.raises(InvalidAlgebraSpec):
        orthonormalize_basis([[1.0, 2.0]])
    # "2" and True used to run as N = 2 and N = 1, "x" and [2] to raise bare errors.
    for target in (0.0, -2.0, float("nan"), "2", True, "x", [2]):
        with pytest.raises(InvalidAlgebraSpec):
            orthonormalize_basis([SIGMA_Z, SIGMA_X, SIGMA_Y], target_N=target)


@pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan])
def test_non_finite_basis_and_target_are_typed_without_warnings(entry):
    # An infinite target_N used to warn in the rescaling and then fail as
    # BasisNotClosed "residual nan"; a non-finite entry warned in the
    # Hermiticity check before NonHermitianInput.
    bad = SIGMA_X.copy()
    bad[0, 1] = bad[1, 0] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidAlgebraSpec, match="target_N"):
            orthonormalize_basis([SIGMA_Z, SIGMA_X, SIGMA_Y], target_N=abs(entry))
        with pytest.raises(InvalidAlgebraSpec, match="finite"):
            orthonormalize_basis([SIGMA_Z, bad, SIGMA_Y])


# ---------------------------------------------------------------------------
# Module invariants
# ---------------------------------------------------------------------------

def test_orthogonality_all_pairs(catalog_algebras):
    for algebra in catalog_algebras:
        mats = np.asarray(algebra.basis.basis)
        gram = np.einsum("mij,nji->mn", mats, mats).real
        target = algebra.norm * np.eye(algebra.dim)
        assert np.abs(gram - target).max() < 1e-10 * algebra.norm


def test_conjugation_matrix_matches_defining_rep(catalog_algebras, su3, half_one):
    # Oracle: d[m, n] = Tr(U^dag O_m U O_n)/N with U the dense group unitary.
    rng = np.random.default_rng(11)
    for algebra in catalog_algebras + [su3, half_one]:
        mats = np.asarray(algebra.basis.basis)
        for l in range(algebra.cartan_weyl.num_roots_L):
            alpha = complex(rng.normal(), rng.normal())
            u = group_op_unitary(GroupOp(l, alpha), algebra)
            oracle = np.einsum("mij,nji->mn", u.conj().T @ mats @ u, mats) / algebra.norm
            d = adjoint_action_of(GroupOp(l, alpha), algebra).matrix
            assert d.dtype == np.float64
            assert np.abs(d - oracle).max() < 1e-12
            assert np.abs(d @ d.T - np.eye(algebra.dim)).max() < 1e-12


@pytest.mark.parametrize("magnitude", [1e-8, 0.3, 2.0, 7.0])
def test_closed_form_rotations_match_dense(catalog_algebras, so8, su3, magnitude):
    # Both representations, every root, against the eigendecomposition path.
    rng = np.random.default_rng(5)
    for algebra in catalog_algebras + [so8, su3]:
        cw, adj = algebra.cartan_weyl, algebra.adjoint
        state = rng.standard_normal(algebra.rep_dim) + 1j * rng.standard_normal(algebra.rep_dim)
        state /= np.linalg.norm(state)
        coeffs = rng.standard_normal(algebra.dim)
        coeffs /= np.linalg.norm(coeffs)
        for l in range(cw.num_roots_L):
            alpha = magnitude * np.exp(2j * np.pi * rng.uniform())
            dense = expi_hermitian(alpha * cw.raising_ops[l] + np.conj(alpha) * cw.lowering_ops[l])
            rotated = cw.defining.rotate(l, alpha, np.eye(algebra.rep_dim))
            assert np.abs(rotated - dense).max() < 1e-12
            assert np.abs(cw.defining.rotate(l, alpha, state) - dense @ state).max() < 1e-12
            dense_adj = expi_hermitian(alpha * adj.raising[l] + np.conj(alpha) * adj.lowering[l])
            d = adj.rotate(l, alpha, np.eye(algebra.dim))
            assert np.abs(d - dense_adj).max() < 1e-12
            assert np.abs(d @ d.T - np.eye(algebra.dim)).max() < 1e-12
            assert np.abs(adj.rotate(l, alpha, coeffs) - d @ coeffs).max() < 1e-12


def test_rotate_matches_dense_exponential(catalog_algebras, su3, half_one):
    # RootImages.rotate against exp(i gen) by eigendecomposition, in both
    # representations: vector and matrix x, real and complex, at alpha = 0,
    # the root's reflection exponent and a random exponent.  A real x stays
    # real in the adjoint representation.
    rng = np.random.default_rng(19)
    for algebra in catalog_algebras + [su3, half_one, build_tied_top()]:
        for images in (algebra.cartan_weyl.defining, algebra.adjoint):
            dim = images.raising.shape[1]
            real_vec, real_mat = rng.standard_normal(dim), rng.standard_normal((dim, 3))
            xs = [real_vec, real_mat, np.eye(dim),
                  real_vec + 1j * rng.standard_normal(dim),
                  real_mat + 1j * rng.standard_normal((dim, 3))]
            for l, reflection in enumerate(algebra.reflection_alphas):
                for alpha in (0j, complex(reflection), complex(rng.normal(), rng.normal())):
                    dense = expi_hermitian(alpha * images.raising[l]
                                           + np.conj(alpha) * images.lowering[l])
                    for x in xs:
                        out = images.rotate(l, alpha, x)
                        assert out.shape == x.shape
                        assert np.abs(out - dense @ x).max() < 1e-12, algebra.name
                        if images is algebra.adjoint and not np.iscomplexobj(x):
                            assert not np.iscomplexobj(out), algebra.name
    for images in (make_su2(1).cartan_weyl.defining, make_su2(1).adjoint):
        dim = images.raising.shape[1]
        for alpha in (1e308 + 1e308j, -1.5e308 - 1e308j):
            with pytest.raises(NonFiniteGate):
                images.rotate(0, alpha, np.eye(dim))
        for l in (1, -1):
            with pytest.raises(RootIndexOutOfRange):
                images.rotate(l, 0.3 + 0j, np.eye(dim))


def test_wide_root_spectrum_is_typed():
    # One su(2) irrep puts all 2j + 1 eigenvalues on its single root; past
    # j = 11 the interpolating polynomial cannot hold double precision.
    algebra = make_su2(MAX_TWO_J)
    dense = expi_hermitian(2.0 * algebra.basis.basis[1])
    assert np.abs(algebra.cartan_weyl.defining.rotate(0, 2.0, np.eye(23)) - dense).max() < 1e-9
    # The catalog refuses larger spins before building anything; assembly
    # refuses them on its own too.
    for two_j in (MAX_TWO_J + 1, MAX_TWO_J + 2, 10 ** 9):
        with pytest.raises(RootSpectrumIllConditioned, match="closed-form"):
            make_su2(two_j)
    for two_j in (MAX_TWO_J + 1, MAX_TWO_J + 2):
        basis = orthonormalize_basis([2 * s for s in spin_matrices(two_j)])
        with pytest.raises(RootSpectrumIllConditioned, match=f"{two_j + 1} distinct"):
            assemble_algebra(basis, csa_indices=[0], root_pairs=[(1, 2)])


def test_out_of_range_root_index_is_typed(su2_half):
    with pytest.raises(RootIndexOutOfRange):
        su2_half.adjoint.rotate(1, 0.3, np.eye(3))
    with pytest.raises(RootIndexOutOfRange):
        su2_half.adjoint.rotate(-1, 0.3, np.eye(3))
    state = su2_half.highest_weight[0]
    with pytest.raises(RootIndexOutOfRange):
        apply_group_op(state, GroupOp(5, 0.3), su2_half)
    with pytest.raises(RootIndexOutOfRange):
        apply_group_op(state, GroupOp(-1, 0.3), su2_half)


def test_non_integer_root_index_is_typed(su3):
    # su(3) has roots 0..2, so a boolean or float 1 used to pass the range
    # test: True acted as root 1, and 1.0 failed later as a bare TypeError.
    state = su3.highest_weight[0]
    coeffs = cw_coefficients(su3, [0.0, 0.0], [0.5, 0.5, 0.5])
    for root in (True, np.True_, 1.0, np.float64(1.0), "1"):
        with pytest.raises(RootIndexOutOfRange):
            apply_group_op(state, GroupOp(root, 0.3), su3)
        with pytest.raises(RootIndexOutOfRange):
            adjoint_action_of(GroupOp(root, 0.3), su3)
        with pytest.raises(RootIndexOutOfRange):
            plan_step(coeffs, root, su3)
    root = np.int64(1)
    assert np.array_equal(apply_group_op(state, GroupOp(root, 0.3), su3),
                          apply_group_op(state, GroupOp(1, 0.3), su3))
    assert np.array_equal(adjoint_action_of(GroupOp(root, 0.3), su3).matrix,
                          adjoint_action_of(GroupOp(1, 0.3), su3).matrix)
    assert plan_step(coeffs, root, su3) == plan_step(coeffs, 1, su3)


def test_conjugation_consistency_oracle(catalog_algebras, half_one):
    # Coefficients of exp-conjugation agree between defining and adjoint reps:
    # exp(ad X) = Ad(exp X), which assembly does not check.
    rng = np.random.default_rng(7)
    for algebra in catalog_algebras + [half_one]:
        mats = np.asarray(algebra.basis.basis)
        adj = adjoint_matrices(algebra)
        cw = algebra.cartan_weyl
        for _ in range(5):
            coeffs = rng.standard_normal(algebra.dim)
            l = int(rng.integers(cw.num_roots_L))
            alpha = complex(rng.normal(scale=0.3), rng.normal(scale=0.3))
            u = expi_hermitian(alpha * cw.raising_ops[l] + np.conj(alpha) * cw.lowering_ops[l])
            x = np.einsum("m,mij->ij", coeffs, mats)
            c_def = np.einsum("ij,mji->m", u.conj().T @ x @ u, mats).real / algebra.norm

            ua = expi_hermitian(alpha * algebra.adjoint.raising[l]
                                + np.conj(alpha) * algebra.adjoint.lowering[l])
            xa = np.einsum("m,mij->ij", coeffs, adj)
            c_adj = adjoint_coefficients(ua.conj().T @ xa @ ua, algebra)
            assert np.abs(c_def - c_adj).max() < 1e-9
