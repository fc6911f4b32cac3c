"""Classical simulation of a Lie-algebraic circuit by moment propagation.

A gate T acts on the length-M moment vector through the real matrix
d[m, m'] = Tr(O_m' T^dag O_m T)/N.  Propagating through a circuit is one
matrix-vector product per gate, with no state vector in sight; the final
moments certify themselves through the purity invariant and can be handed
back to the synthesis pipeline when an explicit preparation is wanted.
"""

import numpy as np

from gcsynth import (
    GroupOp,
    LqcCircuit,
    adjoint_action_of,
    apply_circuit,
    exact_moments,
    final_state_query,
    gcs_certificate,
    make_budget,
    make_so2n,
    propagate,
    verify,
)
from gcsynth.lqc import hw_moments

algebra = make_so2n(3)
rng = np.random.default_rng(11)

# A 12-gate circuit: mostly group operations, plus one CSA phase unitary
# (not of displacement form, but still span-preserving, hence simulable).
gates = [GroupOp(int(rng.integers(6)),
                 complex(rng.normal(scale=0.5), rng.normal(scale=0.5)))
         for _ in range(11)]
# The CSA generators share an eigenbasis, so exp(i sum_r c_r H_r) is a phase
# per weight vector: exp(i w . c) on the vector of weight w.
vectors, weights = algebra.weight_basis
phases = np.exp(1j * weights @ np.array([0.4, 0.0, -0.7]))
gates.insert(5, (vectors * phases) @ vectors.conj().T)

actions = [adjoint_action_of(g, algebra) for g in gates]
circuit = LqcCircuit(actions=actions, initial=hw_moments(algebra))
final = propagate(circuit)

ok, deficit = gcs_certificate(final, algebra)
print(f"{len(gates)}-gate circuit on {algebra.name}: purity {final.purity:.12f}, "
      f"certificate {'pass' if ok else 'FAIL'} (deficit {deficit:.2e})")

# Cross-check against the brute-force state vector (desk scale only).
state = algebra.highest_weight[0]
for g in gates:
    if isinstance(g, GroupOp):
        state = apply_circuit(state, [g], algebra)
    else:
        state = g @ state
brute = exact_moments(state, algebra)
print(f"moment propagation vs state vector: max deviation "
      f"{np.abs(final.values - brute.values).max():.2e}")

# Recover an explicit preparation circuit for the final state.
budget = make_budget(1e-6, 0.05, algebra)
report = final_state_query(final, algebra, budget)
check = verify(report, state, algebra)
print(f"recovered circuit: {report.total_ops} ops, "
      f"fidelity {check.fidelity:.12f} against the brute-force final state")
