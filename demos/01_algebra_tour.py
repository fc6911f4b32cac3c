"""Tour of the algebra layer: bases, Cartan-Weyl splits, root su(2) triples.

Every algebra in this toolkit is a list of Hermitian matrices O_1..O_M with
Tr(O_m O_m') = N delta_mm', ordered so the commuting CSA generators come
first and each root contributes a partner pair (E+ + E-, i(E- - E+)).
"""

import numpy as np

from gcsynth import make_so2n, make_su2, validate_algebra

np.set_printoptions(precision=3, suppress=True, linewidth=100)

# A spin-1/2 instance is just the Pauli basis.
su2 = make_su2(1)
print("=== su(2), spin 1/2 ===")
print(f"M = {su2.dim}, rep_dim = {su2.rep_dim}, N = {su2.norm}")
print("basis[0] (the CSA generator):")
print(np.asarray(su2.basis.basis[0]).real)
print("raising operator E+ (= sigma^+):")
print(np.asarray(su2.cartan_weyl.raising_ops[0]))

# Each root carries an su(2) triple: Z = [E+, E-] = sum_r mu_r H_r in the
# CSA, and [Z, E+] = eta E+ with eta = 2|mu|^2 > 0.  Both are read from the
# structure constants, so they are algebra data: for the doubled spin basis
# they are the same for every spin j.
for two_j in (1, 2, 3):
    t = make_su2(two_j).cartan_weyl.root_triples[0]
    print(f"spin {two_j}/2: mu = {t.mu}, eta = {t.eta}  (rep-independent)")

# so(2n): quadratic Majorana observables under the Jordan-Wigner map.
print("\n=== so(6) on 3 fermionic modes ===")
so6 = make_so2n(3)
cw = so6.cartan_weyl
print(f"M = {so6.dim}, rank R = {cw.rank_R}, roots L = {cw.num_roots_L}, "
      f"rep_dim = {so6.rep_dim}")
print("root data (mu rows give Z_l over the CSA; hopping and pairing flavors):")
for t in cw.root_triples:
    flavor = "hopping" if t.mu.min() < 0 else "pairing"
    print(f"  root {t.root_index}: mu = {t.mu}, eta = {t.eta}  [{flavor}]")

# Every check a hand-built basis or split can fail runs where it is built;
# validate_algebra reads back the residuals those checks cached, as
# (check, residual, tolerance) rows.  What follows from them (f's
# antisymmetry, the su(2) relations, the adjoint bracket and its agreement
# with group conjugation) is left to the test suite.
print("\nvalidation report for so(6):")
for check, residual, tol in validate_algebra(so6.basis, so6.cartan_weyl):
    print(f"  {check}: residual {residual:.3e} (tol {tol:.1e})")
