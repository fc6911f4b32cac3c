import json

import numpy as np
import pytest

from gcsynth import (
    exact_moments,
    highest_weight_state,
    load_algebra,
    make_so2n,
    make_su2,
    resolve_algebra,
    validate_algebra,
)
from gcsynth.catalog import jordan_wigner_majoranas, reference_instances
from gcsynth.errors import (
    GcsynthError,
    KillingFormDegenerate,
    NonHermitianInput,
    RootPairNotEigenvector,
)
from gcsynth.serialize import _matrix_to_json, save_algebra

from conftest import SIGMA_X, SIGMA_Y, SIGMA_Z, commutator


def test_su2_two_j_one_is_pauli(su2_half):
    assert np.allclose(su2_half.basis.basis, [SIGMA_Z, SIGMA_X, SIGMA_Y], atol=1e-14)
    assert su2_half.norm == pytest.approx(2.0)


def test_su2_spin_one_relations(su2_one):
    oz, ox, oy = np.asarray(su2_one.basis.basis)
    assert oz.shape == (3, 3)
    # [O_z, O_x] = 2i O_y for the doubled spin matrices, any j.
    assert np.allclose(commutator(oz, ox), 2j * oy, atol=1e-12)
    assert np.allclose(commutator(oy, oz), 2j * ox, atol=1e-12)


def test_su2_hw_is_top_sz_eigenvector(su2_half):
    hw, weights = highest_weight_state(su2_half)
    assert np.abs(hw[0]) == pytest.approx(1.0, abs=1e-12)
    assert weights[0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n,dim_m,rank,roots", [(2, 6, 2, 2), (3, 15, 3, 6), (4, 28, 4, 12)])
def test_so2n_shapes(n, dim_m, rank, roots):
    algebra = make_so2n(n)
    assert algebra.dim == dim_m
    assert algebra.cartan_weyl.rank_R == rank
    assert algebra.cartan_weyl.num_roots_L == roots
    assert algebra.rep_dim == 2 ** n


def test_so2n_enumeration_oracle():
    # M = number of quadratic Majorana monomials i c_a c_b with a < b.
    for n in (2, 3, 4):
        count = sum(1 for a in range(2 * n) for b in range(a + 1, 2 * n))
        assert make_so2n(n).dim == count


def test_majoranas_anticommute():
    c = jordan_wigner_majoranas(3)
    dim = c[0].shape[0]
    for a in range(6):
        for b in range(6):
            anti = c[a] @ c[b] + c[b] @ c[a]
            expected = 2.0 * np.eye(dim) if a == b else np.zeros((dim, dim))
            assert np.abs(anti - expected).max() < 1e-13


def test_so2_rejected_as_abelian():
    with pytest.raises(KillingFormDegenerate):
        make_so2n(1)


def test_so2n_vacuum_purity_matches_brute_force(so6):
    # Oracle: purity of the vacuum from explicit expectations of all M observables.
    hw, weights = highest_weight_state(so6)
    vacuum = np.zeros(8, dtype=complex)
    vacuum[0] = 1.0
    assert np.abs(hw - vacuum * (hw[0] / abs(hw[0]))).max() < 1e-12
    moments = exact_moments(vacuum, so6)
    assert moments.purity == pytest.approx(float(np.dot(weights, weights)), abs=1e-12)


def test_catalog_instances_validate(catalog_algebras):
    for algebra in catalog_algebras:
        report = validate_algebra(algebra.basis, algebra.cartan_weyl)
        assert report.ok, f"{algebra.name}:\n{report}"


def test_resolve_algebra_specs():
    assert resolve_algebra("su2:2").name == "su2:2"
    assert resolve_algebra("so2n:2").name == "so2n:2"
    with pytest.raises(ValueError):
        resolve_algebra("sp4:1")


@pytest.mark.parametrize("build, argument", [
    (make_su2, 0), (make_su2, 1.5), (make_su2, "2"),
    (make_so2n, 0), (make_so2n, 7), (make_so2n, 2.5),
    (resolve_algebra, "sp4:1"), (resolve_algebra, "so2n"), (resolve_algebra, "so2n:x"),
    (resolve_algebra, "su2:2.5"), (resolve_algebra, "so2n:9"),
], ids=["su2-zero", "su2-float", "su2-str", "so2n-zero", "so2n-seven", "so2n-float",
        "unknown-name", "missing-parameter", "non-integer", "non-integer-float", "so2n-nine"])
def test_bad_catalog_parameters_are_typed(build, argument):
    with pytest.raises(GcsynthError):
        build(argument)


def test_reference_instances_cover_acceptance_set():
    names = [a.name for a in reference_instances()]
    assert names == ["su2:1", "su2:2", "su2:3", "so2n:2", "so2n:3"]


# ---------------------------------------------------------------------------
# Definition files
# ---------------------------------------------------------------------------

def test_round_trip_structure_constants(tmp_path, su2_half):
    path = tmp_path / "su2.json"
    save_algebra(su2_half, path)
    reloaded = load_algebra(path)
    assert np.abs(np.asarray(reloaded.basis.structure_constants)
                  - np.asarray(su2_half.basis.structure_constants)).max() < 1e-12
    assert reloaded.norm == pytest.approx(su2_half.norm, abs=1e-12)


def test_round_trip_so4(tmp_path, so4):
    path = tmp_path / "so4.json"
    save_algebra(so4, path)
    reloaded = load_algebra(path)
    assert np.abs(np.asarray(reloaded.basis.basis)
                  - np.asarray(so4.basis.basis)).max() < 1e-12


def test_non_hermitian_file_rejected(tmp_path, su2_half):
    path = tmp_path / "bad.json"
    save_algebra(su2_half, path)
    data = json.loads(path.read_text())
    data["basis"][1] = _matrix_to_json(np.array([[0, 1], [0, 0]], dtype=complex))
    path.write_text(json.dumps(data))
    with pytest.raises(NonHermitianInput, match="basis element 1 is not Hermitian"):
        load_algebra(path)


def test_mislabeled_root_pair_surfaces(tmp_path, su3):
    path = tmp_path / "su3.json"
    save_algebra(su3, path)
    data = json.loads(path.read_text())
    # Swap the y-partners of two different roots: pairs no longer ad-eigenvectors.
    data["root_pairs"] = [[2, 6], [3, 5], [4, 7]]
    path.write_text(json.dumps(data))
    with pytest.raises(RootPairNotEigenvector):
        load_algebra(path)
