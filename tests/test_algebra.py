import dataclasses
import re
import warnings

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

import gcsynth.algebra as algebra_module
from gcsynth import (
    AlgebraBasis,
    assemble_algebra,
    make_so2n,
    make_su2,
    build_cartan_weyl,
    orthonormalize_basis,
    validate_algebra,
)
from gcsynth.catalog import MAX_TWO_J, spin_matrices
from gcsynth.errors import (
    BasisNotClosed,
    CsaNotAbelian,
    GcsynthError,
    GramNotDiagonal,
    InvalidAlgebraSpec,
    KillingFormDegenerate,
    LinearlyDependentBasis,
    NonHermitianInput,
    RootIndexOutOfRange,
    RootPairNotEigenvector,
    RootSpectrumIllConditioned,
    ValidationFailed,
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
    commutator,
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


@pytest.mark.parametrize("field", ["etas", "mu_matrix"])
def test_wrong_root_data_fails_su2_relations(su3, field):
    # A hand-built split whose eta is off by 1e-6, or whose mu moves by 1e-6
    # orthogonally to itself (mu . lam unchanged), fails only the su(2) check.
    cw = su3.cartan_weyl
    wrong = np.array(getattr(cw, field))
    if field == "etas":
        wrong[0] *= 1.0 + 1e-6
    else:
        wrong[0] += 1e-6 * np.array([-wrong[0, 1], wrong[0, 0]])
    broken = dataclasses.replace(cw, **{field: wrong})
    report = validate_algebra(su3.basis, broken)
    assert {e.name for e in report.failures()} == {"su(2) triple relations"}


# ---------------------------------------------------------------------------
# validate_algebra
# ---------------------------------------------------------------------------

def test_valid_su2_report_clean(su2_half):
    report = validate_algebra(su2_half.basis, su2_half.cartan_weyl)
    assert report.ok, str(report)


def test_scaled_element_fails_orthogonality(su2_half):
    mats = np.array(su2_half.basis.basis)
    mats[0] = 1.01 * mats[0]
    broken = AlgebraBasis(dim_M=3, rep_dim=2, basis=mats, normalization_N=2.0,
                          structure_constants=su2_half.basis.structure_constants)
    report = validate_algebra(broken)
    entry = next(e for e in report.entries if "orthogonality" in e.name)
    assert not entry.passed
    # Tr((1.01 s_z)^2) - 2 = 0.0402 ~ 0.02 * N
    assert entry.residual == pytest.approx(0.02 * 2.0, rel=0.02)


def test_abelian_pair_fails_killing():
    mats = np.array([SIGMA_Z, np.eye(2, dtype=complex)])
    broken = AlgebraBasis(dim_M=2, rep_dim=2, basis=mats, normalization_N=2.0,
                          structure_constants=np.zeros((2, 2, 2)))
    report = validate_algebra(broken)
    assert not report.ok
    assert any("Killing" in e.name and not e.passed for e in report.entries)


def test_validation_reports_all_catalog(catalog_algebras, half_one):
    for algebra in catalog_algebras + [half_one]:
        report = validate_algebra(algebra.basis, algebra.cartan_weyl)
        assert report.ok, f"{algebra.name}:\n{report}"


def test_validation_makes_no_eigendecomposition(so6, monkeypatch):
    # The suite reads f and the basis only: no dense exponential, no
    # adjoint Gram, no homomorphism pass.
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *args: calls.append(args) or eigh(*args))
    report = validate_algebra(so6.basis, so6.cartan_weyl)
    assert report.ok and calls == []
    assert [e.name for e in report.entries] == [
        "basis hermiticity", "trace orthogonality Tr(O_m O_m') = N delta",
        "structure constants antisymmetric", "brackets close over the basis",
        "Killing form nondegenerate", "CSA generators commute", "L = (M - R)/2",
        "Cartan-Weyl reconstruction identity", "su(2) triple relations"]


def test_validate_never_raises_on_unclosed_basis(su2_half):
    # A basis whose brackets leave its span must come back as a failed
    # report, not an exception, even with a Cartan-Weyl split supplied.
    mats = np.array([SIGMA_Z, SIGMA_X])  # [s_z, s_x] ~ s_y, outside the span
    broken = AlgebraBasis(dim_M=2, rep_dim=2, basis=mats, normalization_N=2.0,
                          structure_constants=np.zeros((2, 2, 2)))
    report = validate_algebra(broken, su2_half.cartan_weyl)
    assert not report.ok
    assert any("close" in e.name and not e.passed for e in report.entries)


def test_nan_structure_constant_fails_report(su2_half):
    # A non-finite f must come back as failed checks, not a LinAlgError
    # from the Killing-form SVD.
    f = np.array(su2_half.basis.structure_constants)
    f[0, 1, 2] = np.nan
    broken = AlgebraBasis(dim_M=3, rep_dim=2, basis=su2_half.basis.basis,
                          normalization_N=su2_half.norm, structure_constants=f)
    for report in (validate_algebra(broken), validate_algebra(broken, su2_half.cartan_weyl)):
        failed = {e.name for e in report.failures()}
        assert {"brackets close over the basis", "Killing form nondegenerate"} <= failed


def test_perturbed_structure_constant_fails_assembly(su3):
    # A hand-built su(3) basis whose f is off by 1e-6 in one entry: closure
    # must fail, and assembly must refuse it.
    f = np.array(su3.basis.structure_constants)
    f[2, 5, 0] += 1e-6
    broken = AlgebraBasis(dim_M=8, rep_dim=3, basis=su3.basis.basis,
                          normalization_N=su3.norm, structure_constants=f)
    cw = su3.cartan_weyl
    with pytest.raises(ValidationFailed) as info:
        assemble_algebra(broken, cw.csa_indices, cw.pair_map)
    failed = {e.name for e in info.value.report.failures()}
    assert "brackets close over the basis" in failed


def test_nan_basis_entry_fails_validation_before_rotation_spectra(su2_half):
    # Assembly forces both RootImages spectra only after validate_algebra, so
    # a hand-built basis with a NaN entry never reaches eigvalsh.
    mats = np.array(su2_half.basis.basis)
    mats[1, 0, 1] = np.nan
    broken = AlgebraBasis(dim_M=3, rep_dim=2, basis=mats, normalization_N=su2_half.norm,
                          structure_constants=su2_half.basis.structure_constants)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationFailed) as info:
            assemble_algebra(broken, [0], [(1, 2)])
    assert "basis hermiticity" in {e.name for e in info.value.report.failures()}


def test_each_bracket_check_runs_once_per_assembly(monkeypatch):
    # Closure on the defining rep: one call, shared by construction and
    # validate_algebra, on the path the basis selects: the row-sparse kernel
    # for monomial su(3), dense BLAS for spin-1 su(2), whose Jx has two
    # nonzeros in its middle row.
    dense, sparse = [], []
    dense_residual = algebra_module._bracket_residual
    sparse_residual = algebra_module._RowSparse.residual

    def counting_dense(gens, f):
        dense.append(gens.dtype)
        return dense_residual(gens, f)

    def counting_sparse(self, f):
        sparse.append(self.vals.dtype)
        return sparse_residual(self, f)

    monkeypatch.setattr(algebra_module, "_bracket_residual", counting_dense)
    monkeypatch.setattr(algebra_module._RowSparse, "residual", counting_sparse)
    build_su3()
    assert (sparse, dense) == ([np.dtype(complex)], [])
    sparse.clear()
    make_su2(2)
    assert (sparse, dense) == ([], [np.dtype(complex)])


# ---------------------------------------------------------------------------
# Row-sparse kernel against the dense BLAS oracle
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def monomial_algebras(su2_half, su3):
    return [su2_half, su3] + [make_so2n(n) for n in range(2, 7)]


def _adjoint_real(algebra):
    return -adjoint_matrices(algebra).imag


def test_row_sparse_matches_dense_oracle(monomial_algebras):
    rng = np.random.default_rng(7)
    for algebra in monomial_algebras:
        mats, norm = np.asarray(algebra.basis.basis), algebra.norm
        assert algebra.basis.row_sparse, algebra.name
        f_sparse = algebra_module._RowSparse(1j * mats).structure_constants(norm)
        f_dense = algebra_module._structure_constants(mats, norm)
        assert np.abs(f_sparse - f_dense).max() <= 1e-15, algebra.name
        # The residuals of the true f are round-off; a perturbed f, or unequal
        # generator norms, give larger residuals whose worst pair both paths
        # must name alike.
        bumped = f_dense + np.where(rng.random(f_dense.shape) < 0.05,
                                    1e-3 * rng.standard_normal(f_dense.shape), 0.0)
        scale = rng.uniform(0.5, 2.0, algebra.dim)[:, None, None]
        adjoint = _adjoint_real(algebra)
        for gens, f in ((1j * mats, f_dense), (1j * mats, bumped),
                        (adjoint, f_dense), (scale * adjoint, bumped)):
            value, pair = algebra_module._RowSparse(gens).residual(f)
            oracle, oracle_pair = algebra_module._bracket_residual(gens, f)
            assert abs(value - oracle) <= 1e-15 * max(1.0, oracle), algebra.name
            if f is bumped:
                assert pair == oracle_pair, algebra.name


def test_row_sparse_residual_reports_nan_as_worst(su3):
    f = np.array(su3.basis.structure_constants)
    f[3, 6, 1] = np.nan
    value, pair = algebra_module._RowSparse(1j * np.asarray(su3.basis.basis)).residual(f)
    assert np.isnan(value) and pair == (3, 6)


def test_so2n_builds_make_no_dense_bracket_pass(monkeypatch):
    dense = []
    monkeypatch.setattr(algebra_module, "_structure_constants",
                        lambda *args: dense.append(args) or None)
    monkeypatch.setattr(algebra_module, "_bracket_residual",
                        lambda *args: dense.append(args) or None)
    for n in range(2, 7):
        assert make_so2n(n).basis.row_sparse
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
            patch.setattr(algebra_module, "ROW_SPARSE_MAX_NNZ", 0)
        try:
            basis = orthonormalize_basis(mats)
        except GcsynthError as exc:
            return None, (type(exc), str(exc))
    assert basis.row_sparse != dense
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
    tied = _tied_worst_pairs(np.array(mats))
    assert {tuple(int(g) for g in match.groups()[:2]) for match in named} <= tied


def _tied_worst_pairs(mats):
    """Pairs m < n whose closure residual is within 1e-12 of the worst, per pair
    by the i_bracket oracle on the dense f (the inputs are already normalized)."""
    norm = float(np.trace(mats[0] @ mats[0]).real)
    f = algebra_module._structure_constants(mats, norm)
    resid = {}
    for m in range(len(mats)):
        for n in range(m + 1, len(mats)):
            expansion = np.einsum("k,kij->ij", f[m, n], mats)
            resid[m, n] = np.linalg.norm(i_bracket(mats[m], mats[n]) - expansion) \
                / max(1.0, np.linalg.norm(mats[m]) * np.linalg.norm(mats[n]))
    worst = max(resid.values())
    return {pair for pair, value in resid.items() if value >= worst - 1e-12}


@pytest.mark.parametrize("csa, pairs", [
    ([7], [(1, 2)]), ([-3], [(1, 2)]), ([0], [(1, 1)]), ([], [(0, 1)]), ([0, 1, 2], []),
], ids=["csa-7", "csa-negative", "pair-repeat", "csa-empty", "roots-empty"])
def test_bad_labels_are_typed(csa, pairs):
    basis = orthonormalize_basis([SIGMA_Z, SIGMA_X, SIGMA_Y])
    with pytest.raises(InvalidAlgebraSpec):
        build_cartan_weyl(basis, csa, pairs)


def test_bad_basis_shapes_are_typed():
    with pytest.raises(InvalidAlgebraSpec):
        orthonormalize_basis([SIGMA_Z, np.eye(3), SIGMA_Y])
    with pytest.raises(InvalidAlgebraSpec):
        orthonormalize_basis([[1.0, 2.0]])
    for target in (0.0, -2.0, float("nan")):
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
