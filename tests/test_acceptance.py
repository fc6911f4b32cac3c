"""Acceptance criteria, one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Criterion 7 is informational: it warns instead of failing.
"""

import time
import warnings

import numpy as np
import pytest

from gcsynth import (
    GroupOp,
    LqcCircuit,
    MomentVector,
    adjoint_action_of,
    apply_circuit,
    build_target,
    exact_moments,
    hidden_gcs,
    highest_weight_state,
    hoeffding_shots,
    make_budget,
    make_so2n,
    make_su2,
    propagate,
    spectral_gap,
    step_bound,
    synthesize,
    verify,
)
from gcsynth.algebra import assemble_algebra, orthonormalize_basis
from gcsynth.diagonalize import plan_step, run as diag_run, select_pivot
from gcsynth.lqc import hw_moments
from gcsynth.states import apply_group_op

from conftest import (
    adjoint_coefficients,
    adjoint_matrices,
    assemble_operator,
    commutator,
    expi_hermitian,
    group_op_unitary,
    root_su2,
)


def _report(num, name, ok, detail):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def exact_runs(catalog_algebras):
    """Criterion 1 work product, shared with criterion 2."""
    t0 = time.perf_counter()
    runs = []
    for algebra in catalog_algebras:
        budget = make_budget(1e-6, 0.05, algebra)
        for seed in range(100):
            handle = hidden_gcs(algebra, seed=seed, num_ops=4)
            report = synthesize(handle.exact_moments(), algebra, budget)
            check = verify(report, handle.reference_state(), algebra)
            runs.append({
                "algebra": algebra,
                "budget": budget,
                "distance": check.distance,
                "k_prime": report.steps_jacobi,
                "trace": report.trace,
            })
    return runs, time.perf_counter() - t0


def test_criterion_1_exact_roundtrip(exact_runs):
    runs, elapsed = exact_runs
    bad = [r for r in runs if r["distance"] > 1e-5]
    worst = max(r["distance"] for r in runs)
    _report(1, "exact-moment round trip",
            not bad,
            f"{len(runs) - len(bad)}/{len(runs)} within 1e-5, "
            f"worst {worst:.2e}, ran in {elapsed:.2f}s")


def test_criterion_2_step_bound(exact_runs):
    runs, _ = exact_runs
    violations = []
    for r in runs:
        num_roots = r["algebra"].cartan_weyl.num_roots_L
        d0 = r["trace"][0]
        bound = step_bound(d0, r["budget"].eps_D, num_roots) + num_roots
        if r["k_prime"] > bound:
            violations.append((r["algebra"].name, r["k_prime"], bound))
        trace = np.array(r["trace"])
        if (np.diff(trace) > 1e-12 * max(1.0, trace[0])).any():
            violations.append((r["algebra"].name, "non-monotone trace", 0))
    worst_k = max(r["k_prime"] for r in runs)
    _report(2, "step-count bound and monotone d-trace",
            not violations,
            f"max K' = {worst_k}, violations: {violations[:3]}")


def test_criterion_3_sampled_confidence(su2_half, so4):
    results = {}
    for algebra in (su2_half, so4):
        budget = make_budget(0.1, 0.05, algebra)
        hits = 0
        trials = 200
        for seed in range(trials):
            handle = hidden_gcs(algebra, seed=seed, num_ops=3)
            report = synthesize(handle, algebra, budget, seed=50_000 + seed)
            check = verify(report, handle.reference_state(), algebra)
            if check.distance <= 0.1:
                hits += 1
        results[algebra.name] = hits
    ok = all(hits >= 184 for hits in results.values())  # reject only below 92%
    target_ok = all(hits >= 190 for hits in results.values())
    detail = ", ".join(f"{name}: {hits}/200" for name, hits in results.items())
    if not target_ok:
        warnings.warn(f"confidence inside binomial tolerance but below 95%: {detail}")
    _report(3, "sampled-tomography confidence", ok, detail)


def test_criterion_4_hoeffding_budget(su2_half):
    q = hoeffding_shots(1.0, 0.1, 0.05, 3)
    budget = make_budget(0.1, 0.05, su2_half)
    handle = hidden_gcs(su2_half, seed=1, num_ops=2)
    report = synthesize(handle, su2_half, budget, seed=2)
    ok = (q == 958) and (report.shot_total == budget.Q * su2_half.dim)
    _report(4, "Hoeffding budget formula", ok,
            f"Q(||O||=1, eps_M=0.1, delta=0.05, M=3) = {q}, "
            f"total shots = {report.shot_total} = Q*M")


def test_criterion_5_oracle_equivalences(catalog_algebras):
    rng = np.random.default_rng(123)
    worst = {"conjugation": 0.0, "diag": 0.0, "fhw": 0.0, "lqc": 0.0}
    for algebra in catalog_algebras:
        mats = np.asarray(algebra.basis.basis)
        adj = adjoint_matrices(algebra)
        cw = algebra.cartan_weyl
        csa_ops = algebra.csa_ops
        hw, w_hw = highest_weight_state(algebra)
        f_hw = np.einsum("r,rij->ij", w_hw, csa_ops)
        budget = make_budget(1e-6, 0.05, algebra)

        for trial in range(100):
            # (a) adjoint-vs-defining conjugation coefficients, 1e-9.
            coeffs = rng.standard_normal(algebra.dim)
            l = int(rng.integers(cw.num_roots_L))
            alpha = complex(rng.normal(scale=0.5), rng.normal(scale=0.5))
            u = expi_hermitian(alpha * cw.raising_ops[l] + np.conj(alpha) * cw.lowering_ops[l])
            x = np.einsum("m,mij->ij", coeffs, mats)
            c_def = np.einsum("ij,mji->m", u.conj().T @ x @ u, mats).real / algebra.norm
            ua = expi_hermitian(alpha * algebra.adjoint.raising[l]
                                + np.conj(alpha) * algebra.adjoint.lowering[l])
            xa = np.einsum("m,mij->ij", coeffs, adj)
            c_adj = adjoint_coefficients(ua.conj().T @ xa @ ua, algebra)
            worst["conjugation"] = max(worst["conjugation"],
                                       float(np.abs(c_def - c_adj).max()))

            handle = hidden_gcs(algebra, seed=7000 + trial, num_ops=3)
            moments = handle.exact_moments()

            # (b) diagonalizer output vs defining-rep conjugation, 1e-8.
            coeffs = build_target(moments, algebra)
            result = diag_run(coeffs, algebra, budget.eps_D)
            f = assemble_operator(coeffs, algebra)
            for op in result.ops:
                v = group_op_unitary(op, algebra)
                f = v.conj().T @ f @ v
            worst["diag"] = max(worst["diag"], float(np.abs(
                f - assemble_operator(result.final_coeffs, algebra)).max()))

            # (c) conjugation identity F_hw = U^dag F_psi U, 1e-9.
            unitary = np.eye(algebra.rep_dim, dtype=complex)
            for op in handle.preparation_ops:
                unitary = group_op_unitary(op, algebra) @ unitary
            f_psi = np.einsum("m,mij->ij", moments.values, mats)
            worst["fhw"] = max(worst["fhw"], float(np.abs(
                unitary.conj().T @ f_psi @ unitary - f_hw).max()))

            # (d) LQC propagation vs brute-force expectations, L <= 20, 1e-9.
            length = int(rng.integers(1, 21))
            gates = [GroupOp(int(rng.integers(cw.num_roots_L)),
                             complex(rng.normal(scale=0.6), rng.normal(scale=0.6)))
                     for _ in range(length)]
            actions = [adjoint_action_of(g, algebra) for g in gates]
            predicted = propagate(LqcCircuit(actions=actions, initial=hw_moments(algebra)))
            state = apply_circuit(hw, gates, algebra)
            worst["lqc"] = max(worst["lqc"], float(np.abs(
                predicted.values - exact_moments(state, algebra).values).max()))

    ok = (worst["conjugation"] < 1e-9 and worst["diag"] < 1e-8
          and worst["fhw"] < 1e-9 and worst["lqc"] < 1e-9)
    _report(5, "oracle equivalences", ok,
            f"worst residuals: conjugation {worst['conjugation']:.1e} (<1e-9), "
            f"diagonalizer {worst['diag']:.1e} (<1e-8), "
            f"Fhw-conjugation {worst['fhw']:.1e} (<1e-9), "
            f"lqc {worst['lqc']:.1e} (<1e-9)")


def test_criterion_6_invariant_suites(catalog_algebras, su2_one, su2_threehalf, so4, so6):
    rng = np.random.default_rng(321)
    failures = []

    # Purity invariance along orbits, 1e-10.
    for algebra in catalog_algebras:
        hw, w = highest_weight_state(algebra)
        p_h = float(np.dot(w, w))
        state = hw
        for _ in range(20):
            op = GroupOp(int(rng.integers(algebra.cartan_weyl.num_roots_L)),
                         complex(rng.standard_normal(), rng.standard_normal()) / 2.0)
            state = apply_group_op(state, op, algebra)
            if abs(exact_moments(state, algebra).purity - p_h) > 1e-10:
                failures.append(f"purity drift on {algebra.name}")
                break

    # Strict purity deficit for non-GCS states.
    cat = np.array([1.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    _, w1 = highest_weight_state(su2_one)
    if not exact_moments(cat, su2_one).purity < float(np.dot(w1, w1)) - 1e-6:
        failures.append("spin-1 cat state purity not below P_h")
    for algebra in (so4, so6):
        uniform = np.ones(algebra.rep_dim, dtype=complex) / np.sqrt(algebra.rep_dim)
        _, w = highest_weight_state(algebra)
        if not exact_moments(uniform, algebra).purity < float(np.dot(w, w)) - 1e-6:
            failures.append(f"uniform state purity not below P_h on {algebra.name}")

    # su(2) triple relations for every root of every catalog algebra, 1e-10.
    for algebra in catalog_algebras:
        for l in range(algebra.cartan_weyl.num_roots_L):
            s_plus, s_minus, s_z = root_su2(algebra, l)
            resid = max(
                float(np.abs(commutator(s_plus, s_minus) - s_z).max()),
                float(np.abs(commutator(s_z, s_plus) - s_plus).max()),
                float(np.abs(commutator(s_z, s_minus) + s_minus).max()),
            )
            if resid > 1e-10:
                failures.append(f"su(2) triple residual {resid:.1e} on {algebra.name}")

    # Gap scaling Delta -> kappa^2 Delta, 1e-9 relative.
    base_gap = spectral_gap(su2_threehalf)
    for kappa in (0.5, 2.0):
        scaled_basis = orthonormalize_basis(
            [kappa * m for m in np.asarray(su2_threehalf.basis.basis)],
            target_N=kappa ** 2 * su2_threehalf.norm)
        scaled = assemble_algebra(scaled_basis, csa_indices=[0], root_pairs=[(1, 2)])
        if abs(spectral_gap(scaled) / base_gap - kappa ** 2) > 1e-9 * kappa ** 2:
            failures.append(f"gap scaling broke at kappa={kappa}")

    _report(6, "invariant suites", not failures, f"failures: {failures or 'none'}")


def test_criterion_7_complexity_smoke():
    # Median per-step diagonalizer time vs M; O(M^3) predicts log-log slope
    # <= 3.5 with constant-factor noise.  Informational: warns, never fails.
    from gcsynth.diagonalize import apply_step

    sizes, times = [], []
    rng = np.random.default_rng(99)
    for algebra in (make_su2(1), make_so2n(2), make_so2n(3), make_so2n(4)):
        samples = []
        for _ in range(60):
            values = rng.standard_normal(algebra.dim)
            coeffs = build_target(MomentVector(values), algebra)
            pivot = select_pivot(coeffs, algebra)
            plan = plan_step(coeffs, pivot, algebra)
            t0 = time.perf_counter()
            apply_step(coeffs, plan, algebra)
            samples.append(time.perf_counter() - t0)
        sizes.append(algebra.dim)
        times.append(float(np.median(samples)))
    slope = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
    detail = (f"per-step medians {['%.1e' % t for t in times]} at M = {sizes}, "
              f"log-log slope {slope:.2f}")
    if slope > 3.5:
        warnings.warn(f"complexity smoke test exceeded slope 3.5: {detail}")
    print(f"ACCEPTANCE 7 complexity smoke test: "
          f"{'PASS' if slope <= 3.5 else 'WARN'} ({detail})")
