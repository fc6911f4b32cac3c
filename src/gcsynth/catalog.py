"""Ready-made algebra instances and the algebra definition-file loader.

Catalog entries:

* ``su2`` -- spin-j irreducible representation (parameter ``two_j``), basis
  {2Jz, 2Jx, 2Jy} so that mu = 1 and eta = 2 independently of j.
* ``so2n`` -- quadratic Majorana algebra on n fermionic modes under the
  Jordan-Wigner map (parameter ``n``), rep_dim 2^n.  The CSA generators are
  the qubit Z_k (= -i c_{2k-1} c_{2k}), so the vacuum is the highest-weight
  state with weights (+1, ..., +1); root partners are the normalized
  hopping/pairing combinations of Majorana monomials, giving
  E+ = sqrt(2) a_j^dag a_k and E+ = sqrt(2) a_k a_j per mode pair.
"""

from dataclasses import dataclass
import operator

import numpy as np

from .algebra import assemble_algebra, orthonormalize_basis
from .errors import InvalidParameter, ParseError, RootSpectrumIllConditioned
from .serialize import _load, parse_algebra_dict

_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
# Spin j = 23/2 puts 24 distinct eigenvalues on its one root generator, past
# what `algebra.RootImages.spectra` admits; larger spins are refused before building.
MAX_TWO_J = 22


def spin_matrices(two_j):
    """Jz, Jx, Jy for spin j = two_j / 2, ordered by descending Jz eigenvalue."""
    j = two_j / 2.0
    dim = two_j + 1
    m = j - np.arange(dim)
    jz = np.diag(m).astype(complex)
    jp = np.zeros((dim, dim), dtype=complex)
    for k in range(1, dim):
        jp[k - 1, k] = np.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
    jm = jp.conj().T
    return jz, (jp + jm) / 2.0, (jp - jm) / 2.0j


def _integer_parameter(value, name, low, high=None):
    """value as an int in low..high, else InvalidParameter."""
    try:
        number = operator.index(value)
    except TypeError:
        raise InvalidParameter(f"{name} must be an integer, got {value!r}") from None
    if number < low or (high is not None and number > high):
        bounds = f"in {low}..{high}" if high is not None else f">= {low}"
        raise InvalidParameter(f"{name} must be {bounds}, got {number}")
    return number


def make_su2(two_j):
    """Spin-j irreducible su(2) instance; M = 3, R = 1, L = 1.

    The basis {2Jz, 2Jx, 2Jy} reduces to the Pauli matrices at two_j = 1 and
    keeps the root data (mu = (1,), eta = 2) identical across spins.
    InvalidParameter unless two_j is an integer >= 1; RootSpectrumIllConditioned,
    before any matrix is built, past MAX_TWO_J.
    """
    two_j = _integer_parameter(two_j, "two_j", 1)
    if two_j > MAX_TWO_J:
        raise RootSpectrumIllConditioned(
            f"spin {two_j}/2 has {two_j + 1} distinct root-generator eigenvalues, too many "
            f"for a closed-form rotation in double precision (two_j <= {MAX_TWO_J})")
    jz, jx, jy = spin_matrices(two_j)
    basis = orthonormalize_basis([2 * jz, 2 * jx, 2 * jy])
    return assemble_algebra(basis, csa_indices=[0], root_pairs=[(1, 2)],
                            name=f"su2:{two_j}")


def jordan_wigner_majoranas(n):
    """2n Majorana operators on n qubits: c[2p] = Z..ZX, c[2p+1] = Z..ZY."""
    eye = np.eye(2, dtype=complex)
    ops = []
    for p in range(n):
        for tail in (_PAULI_X, _PAULI_Y):
            mat = np.ones((1, 1), dtype=complex)
            for site in range(n):
                if site < p:
                    factor = _PAULI_Z
                elif site == p:
                    factor = tail
                else:
                    factor = eye
                mat = np.kron(mat, factor)
            ops.append(mat)
    return ops


def make_so2n(n):
    """so(2n) as quadratic Majorana observables on the 2^n Jordan-Wigner space.

    M = n(2n - 1), R = n, L = n(n - 1).  Roots come in hopping and pairing
    flavors per mode pair j < k; all have eta = 4.  n = 1 gives the abelian
    so(2) and is rejected by the semisimplicity check.  InvalidParameter
    unless n is an integer in 1..6 (rep_dim = 2^n stays at desk scale).
    """
    n = _integer_parameter(n, "n", 1, 6)
    c = jordan_wigner_majoranas(n)
    csa = [-1j * c[2 * p] @ c[2 * p + 1] for p in range(n)]  # qubit Z_p

    hop_x, hop_y, pair_x, pair_y = [], [], [], []
    for j in range(n):
        for k in range(j + 1, n):
            m_xx = 1j * c[2 * j] @ c[2 * k]          # i c1_j c1_k
            m_xy = 1j * c[2 * j] @ c[2 * k + 1]      # i c1_j c2_k
            m_yx = 1j * c[2 * j + 1] @ c[2 * k]      # i c2_j c1_k
            m_yy = 1j * c[2 * j + 1] @ c[2 * k + 1]  # i c2_j c2_k
            hop_x.append((m_xy - m_yx) / np.sqrt(2.0))
            hop_y.append(-(m_xx + m_yy) / np.sqrt(2.0))
            pair_x.append(-(m_xy + m_yx) / np.sqrt(2.0))
            pair_y.append((m_xx - m_yy) / np.sqrt(2.0))

    x_partners, y_partners = [], []
    for idx in range(len(hop_x)):
        x_partners += [hop_x[idx], pair_x[idx]]
        y_partners += [hop_y[idx], pair_y[idx]]
    raw = csa + x_partners + y_partners
    num_roots = len(x_partners)
    basis = orthonormalize_basis(raw, target_N=2.0 ** n)
    pairs = [(n + l, n + num_roots + l) for l in range(num_roots)]
    return assemble_algebra(basis, csa_indices=list(range(n)), root_pairs=pairs,
                            name=f"so2n:{int(n)}")


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    parameter: str
    description: str
    build: callable


CATALOG = (
    CatalogEntry("su2", "two_j",
                 "spin-j irrep of su(2) on a (two_j + 1)-dim space", make_su2),
    CatalogEntry("so2n", "n",
                 "quadratic Majorana so(2n) on the 2^n Jordan-Wigner space", make_so2n),
)


def resolve_algebra(spec):
    """Build a catalog instance from a 'name:parameter' string, e.g. 'su2:1', 'so2n:3'.

    InvalidParameter for an unknown name or a missing or non-integer parameter.
    """
    name, _, param = spec.partition(":")
    for entry in CATALOG:
        if entry.name == name:
            try:
                value = int(param)
            except ValueError:
                raise InvalidParameter(f"catalog entry {name!r} needs an integer parameter "
                                       f"({entry.parameter}), got {param!r}") from None
            return entry.build(value)
    raise InvalidParameter(f"unknown catalog entry {name!r}; known: "
                           + ", ".join(e.name for e in CATALOG))


def reference_instances():
    """The standing desk-scale test set: su(2) j = 1/2, 1, 3/2; so(4); so(6)."""
    return [make_su2(1), make_su2(2), make_su2(3), make_so2n(2), make_so2n(3)]


def load_algebra(path):
    """Load and fully validate an algebra definition file.

    Raises
    ------
    ParseError
        Malformed file.
    InvalidAlgebraSpec, ValidationFailed and the other algebra errors
        Structural problems (bad CSA/root indices, non-Hermitian entries,
        mislabeled root pairs, degenerate Killing form, ...) from assembly.
    """
    data = _load(path)
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a JSON object")
    mats, norm, csa, pairs, name = parse_algebra_dict(data, context=str(path))
    basis = orthonormalize_basis(mats, target_N=norm)
    return assemble_algebra(basis, csa_indices=csa, root_pairs=pairs, name=name)
