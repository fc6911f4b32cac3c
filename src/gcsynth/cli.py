"""Command-line interface: file-based, seeded, reproducible workflows.

Exit status 0 on success, 1 on validation/parse failures, 2 on numerical
failures (non-convergence, orbit violations).  Errors are emitted as a
machine-readable JSON record on stderr.
"""

import argparse
import json
import os
import sys

from . import catalog, lqc, pipeline, serialize
from .errors import (
    DegenerateTop,
    GcsynthError,
    InvalidParameter,
    MaxStepsExceeded,
    NoProgress,
    NotAGcs,
    StepDidNotReducePivot,
    ZeroGap,
)
from .states import hidden_gcs

_NUMERICAL_ERRORS = (MaxStepsExceeded, NoProgress, StepDidNotReducePivot,
                     DegenerateTop, ZeroGap, NotAGcs)


def _out_path(arg, default_name):
    if arg:
        return arg
    return os.path.join(os.environ.get("GCSYNTH_OUT", "."), default_name)


def _resolve_algebra(spec):
    """Accept a definition-file path or a catalog spec like 'su2:1'."""
    if os.path.exists(spec):
        return catalog.load_algebra(spec)
    if ":" in spec:
        return catalog.resolve_algebra(spec)
    raise FileNotFoundError(f"no such algebra file or catalog spec: {spec!r}")


def _check_label(expected, found, context):
    if found not in (expected, "custom"):
        raise GcsynthError(
            f"{context}: artifact was written for algebra {found!r}, "
            f"but {expected!r} was supplied"
        )


def _log(message, quiet=False):
    if not quiet:
        print(message, file=sys.stderr)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gcsynth",
        description="Synthesize preparation circuits for generalized coherent "
                    "states and simulate Lie-algebraic circuits classically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_alg = sub.add_parser("algebra", help="catalog utilities")
    alg_sub = p_alg.add_subparsers(dest="subcommand", required=True)
    alg_sub.add_parser("list", help="list catalog entries")
    p_export = alg_sub.add_parser("export", help="write a catalog instance to a file")
    p_export.add_argument("--name", required=True, choices=[e.name for e in catalog.CATALOG])
    p_export.add_argument("--two-j", type=int, help="spin parameter for su2")
    p_export.add_argument("--n", type=int, help="mode count for so2n")
    p_export.add_argument("--out", help="output path (default $GCSYNTH_OUT/algebra.json)")

    p_synth = sub.add_parser("synth", help="synthesize a circuit from a moment file")
    p_synth.add_argument("--algebra", required=True, help="algebra file or catalog spec")
    p_synth.add_argument("--moments", required=True)
    p_synth.add_argument("--epsilon", type=float, required=True)
    p_synth.add_argument("--delta", type=float, default=0.05)
    p_synth.add_argument("--max-steps", type=int, default=None)
    p_synth.add_argument("--out", help="circuit path (default $GCSYNTH_OUT/circuit.json)")
    p_synth.add_argument("--quiet", action="store_true")

    p_tomo = sub.add_parser("tomo-sim", help="sampled tomography of a hidden GCS")
    p_tomo.add_argument("--algebra", required=True)
    p_tomo.add_argument("--seed", type=int, required=True)
    p_tomo.add_argument("--hidden-ops", type=int, default=5)
    p_tomo.add_argument("--epsilon", type=float, required=True)
    p_tomo.add_argument("--delta", type=float, default=0.05)
    p_tomo.add_argument("--shots-override", type=int, default=None)
    p_tomo.add_argument("--max-steps", type=int, default=None)
    p_tomo.add_argument("--out", help="report path (default $GCSYNTH_OUT/report.json)")
    p_tomo.add_argument("--quiet", action="store_true")

    p_verify = sub.add_parser("verify", help="check a circuit against a hidden state")
    p_verify.add_argument("--algebra", required=True)
    p_verify.add_argument("--circuit", required=True)
    p_verify.add_argument("--against", choices=["hidden"], default="hidden")
    p_verify.add_argument("--seed", type=int, required=True,
                          help="seed of the hidden preparation")
    p_verify.add_argument("--hidden-ops", type=int, default=5)
    p_verify.add_argument("--out", help="optional result path")

    p_lqc = sub.add_parser("lqc", help="Lie-algebraic circuit simulation")
    lqc_sub = p_lqc.add_subparsers(dest="subcommand", required=True)
    p_run = lqc_sub.add_parser("run", help="propagate moments through a circuit file")
    p_run.add_argument("--circuit", required=True)
    p_run.add_argument("--algebra", required=True)
    p_run.add_argument("--out", help="moments path (default $GCSYNTH_OUT/moments.json)")
    p_run.add_argument("--recover-circuit", action="store_true",
                       help="also synthesize a preparation circuit for the final state")
    p_run.add_argument("--epsilon", type=float, default=1e-4)
    p_run.add_argument("--delta", type=float, default=0.05)
    p_run.add_argument("--max-steps", type=int, default=None)
    p_run.add_argument("--quiet", action="store_true")
    return parser


def _cmd_algebra(args):
    if args.subcommand == "list":
        for entry in catalog.CATALOG:
            flag = "--" + entry.parameter.replace("_", "-")
            print(f"{entry.name:6s} {flag:8s} {entry.description}")
        return 0
    if args.name == "su2":
        if args.two_j is None:
            raise InvalidParameter("--two-j is required for su2")
        algebra = catalog.make_su2(args.two_j)
    else:
        if args.n is None:
            raise InvalidParameter("--n is required for so2n")
        algebra = catalog.make_so2n(args.n)
    path = _out_path(args.out, "algebra.json")
    serialize.save_algebra(algebra, path)
    print(path)
    return 0


def _cmd_synth(args):
    algebra = _resolve_algebra(args.algebra)
    moments, label = serialize.load_moments(args.moments)
    _check_label(algebra.label(), label, args.moments)
    budget = pipeline.make_budget(args.epsilon, args.delta, algebra)
    report = pipeline.synthesize(moments, algebra, budget, max_steps=args.max_steps)
    _log(f"d trace: {['%.3e' % d for d in report.trace]}", args.quiet)
    _log(f"K' = {report.steps_jacobi} jacobi + {report.steps_weyl} weyl ops", args.quiet)
    path = _out_path(args.out, "circuit.json")
    serialize.save_circuit(report.ops, report.kind_tags, report.trace,
                           algebra.label(), path)
    print(path)
    return 0


def _cmd_tomo_sim(args):
    algebra = _resolve_algebra(args.algebra)
    handle = hidden_gcs(algebra, args.seed, args.hidden_ops)
    budget = pipeline.make_budget(args.epsilon, args.delta, algebra,
                                  shots_override=args.shots_override)
    report = pipeline.synthesize(handle, algebra, budget, seed=args.seed,
                                 max_steps=args.max_steps)
    check = pipeline.verify(report, handle.reference_state(), algebra)
    report.fidelity = check.fidelity
    report.distance = check.distance
    _log(f"d trace: {['%.3e' % d for d in report.trace]}", args.quiet)
    _log(f"fidelity {check.fidelity:.6f}, distance {check.distance:.3e} "
         f"(target epsilon {args.epsilon})", args.quiet)
    path = _out_path(args.out, "report.json")
    serialize.save_report(report, path)
    print(path)
    return 0


def _cmd_verify(args):
    algebra = _resolve_algebra(args.algebra)
    ops, _, _, label = serialize.load_circuit(args.circuit)
    _check_label(algebra.label(), label, args.circuit)
    handle = hidden_gcs(algebra, args.seed, args.hidden_ops)
    check = pipeline.verify(ops, handle.reference_state(), algebra)
    result = {"fidelity": check.fidelity, "distance": check.distance,
              "algebra": algebra.label(), "seed": args.seed}
    print(json.dumps(result, indent=2, sort_keys=True))
    if args.out:
        serialize._dump(result, args.out)
    return 0


def _cmd_lqc_run(args):
    algebra = _resolve_algebra(args.algebra)
    gates, initial, label = serialize.load_lqc(args.circuit)
    _check_label(algebra.label(), label, args.circuit)
    # A bad epsilon or delta fails before any output is written.
    budget = pipeline.make_budget(args.epsilon, args.delta, algebra) \
        if args.recover_circuit else None
    if initial == "hw":
        initial = lqc.hw_moments(algebra)
    actions = [lqc.adjoint_action_of(g, algebra) for g in gates]
    circuit = lqc.LqcCircuit(actions=actions, initial=initial)
    final = lqc.propagate(circuit)
    ok, deficit = lqc.gcs_certificate(final, algebra)
    _log(f"purity {final.purity:.12f}, certificate "
         f"{'pass' if ok else 'FAIL'} (deficit {deficit:.3e})", args.quiet)
    path = _out_path(args.out, "moments.json")
    serialize.save_moments(final, algebra.label(), path)
    print(path)
    if args.recover_circuit:
        report = lqc.final_state_query(final, algebra, budget)
        circuit_path = os.path.splitext(path)[0] + ".circuit.json"
        serialize.save_circuit(report.ops, report.kind_tags, report.trace,
                               algebra.label(), circuit_path)
        print(circuit_path)
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    handlers = {
        "algebra": _cmd_algebra,
        "synth": _cmd_synth,
        "tomo-sim": _cmd_tomo_sim,
        "verify": _cmd_verify,
        "lqc": _cmd_lqc_run,
    }
    try:
        return handlers[args.command](args)
    except _NUMERICAL_ERRORS as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, MaxStepsExceeded):
            record["trace"] = exc.trace
        print(json.dumps(record), file=sys.stderr)
        return 2
    except (GcsynthError, ValueError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
