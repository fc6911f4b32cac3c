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
import functools

import numpy as np

from .algebra import assemble_algebra, orthonormalize_basis
from .errors import InvalidParameter, RootSpectrumIllConditioned, integer_argument
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
    jp = np.diag(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), 1).astype(complex)
    jm = jp.conj().T
    return jz, (jp + jm) / 2.0, (jp - jm) / 2.0j


def make_su2(two_j):
    """Spin-j irreducible su(2) instance; M = 3, R = 1, L = 1.

    The basis {2Jz, 2Jx, 2Jy} reduces to the Pauli matrices at two_j = 1 and
    keeps the root data (mu = (1,), eta = 2) identical across spins.
    InvalidParameter unless two_j is an integer (not a boolean) >= 1;
    RootSpectrumIllConditioned, before any matrix is built, past MAX_TWO_J.
    """
    two_j = integer_argument(two_j, "two_j", 1)
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
    return [functools.reduce(np.kron, [_PAULI_Z] * p + [tail] + [eye] * (n - 1 - p),
                             np.ones((1, 1), dtype=complex))
            for p in range(n) for tail in (_PAULI_X, _PAULI_Y)]


def make_so2n(n):
    """so(2n) as quadratic Majorana observables on the 2^n Jordan-Wigner space.

    M = n(2n - 1), R = n, L = n(n - 1).  Roots come in hopping and pairing
    flavors per mode pair j < k; all have eta = 4.  n = 1 gives the abelian
    so(2) and is rejected by the semisimplicity check.  InvalidParameter
    unless n is an integer in 1..6 (rep_dim = 2^n stays at desk scale).
    """
    n = integer_argument(n, "n", 1, 6)
    c = jordan_wigner_majoranas(n)
    csa = [-1j * c[2 * p] @ c[2 * p + 1] for p in range(n)]  # qubit Z_p

    x_partners, y_partners = [], []  # per mode pair, the hopping root then the pairing root
    for j in range(n):
        for k in range(j + 1, n):
            m_xx = 1j * c[2 * j] @ c[2 * k]          # i c1_j c1_k
            m_xy = 1j * c[2 * j] @ c[2 * k + 1]      # i c1_j c2_k
            m_yx = 1j * c[2 * j + 1] @ c[2 * k]      # i c2_j c1_k
            m_yy = 1j * c[2 * j + 1] @ c[2 * k + 1]  # i c2_j c2_k
            x_partners += [(m_xy - m_yx) / np.sqrt(2.0), -(m_xy + m_yx) / np.sqrt(2.0)]
            y_partners += [-(m_xx + m_yy) / np.sqrt(2.0), (m_xx - m_yy) / np.sqrt(2.0)]
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

    @property
    def flag(self):
        """The command-line flag that sets `parameter`, e.g. --two-j."""
        return "--" + self.parameter.replace("_", "-")


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


def load_algebra(path):
    """Load and fully validate an algebra definition file.

    Raises
    ------
    ParseError
        Malformed file.
    InvalidAlgebraSpec and the other algebra errors
        Structural problems (bad CSA/root indices, non-Hermitian entries,
        mislabeled root pairs, degenerate Killing form, ...), each raised
        where the basis, the split or the algebra is built.
    """
    mats, norm, csa, pairs, name = parse_algebra_dict(_load(path), context=str(path))
    basis = orthonormalize_basis(mats, target_N=norm)
    return assemble_algebra(basis, csa_indices=csa, root_pairs=pairs, name=name)
