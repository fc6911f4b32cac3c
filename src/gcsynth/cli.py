"""Command-line interface: file-based, seeded, reproducible workflows.

Exit status 0 on success, 1 on bad input (usage, validation and parse
failures), 2 on numerical failures (non-convergence, orbit violations).
Every failure, a usage error included, is one JSON line on stderr; the error
type states its status and fields (`errors.exit_record`).
"""

import argparse
import json
import os
import sys

from . import catalog, lqc, pipeline, serialize
from .errors import GcsynthError, InvalidParameter, exit_record
from .states import hidden_gcs


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InvalidParameter; subparsers are built from this class."""

    def error(self, message):
        raise InvalidParameter(f"{self.prog}: {message}")


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
    parser = _Parser(
        prog="gcsynth",
        description="Synthesize preparation circuits for generalized coherent "
                    "states and simulate Lie-algebraic circuits classically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out_dir = os.environ.get("GCSYNTH_OUT", ".")

    p_alg = sub.add_parser("algebra", help="catalog utilities")
    alg_sub = p_alg.add_subparsers(dest="subcommand", required=True)
    alg_sub.add_parser("list", help="list catalog entries").set_defaults(run=_cmd_algebra_list)
    p_export = alg_sub.add_parser("export", help="write a catalog instance to a file")
    p_export.set_defaults(run=_cmd_algebra_export, out=os.path.join(out_dir, "algebra.json"))
    p_export.add_argument("--name", required=True, choices=[e.name for e in catalog.CATALOG])
    for entry in catalog.CATALOG:
        p_export.add_argument(entry.flag, type=int, help=f"{entry.parameter} for {entry.name}")
    p_export.add_argument("--out", help="output path (default $GCSYNTH_OUT/algebra.json)")

    # Options shared by the two commands that synthesize from moments.
    synthesis = _Parser(add_help=False)
    synthesis.add_argument("--algebra", required=True, help="algebra file or catalog spec")
    synthesis.add_argument("--epsilon", type=float, required=True)
    synthesis.add_argument("--delta", type=float, default=0.05)
    synthesis.add_argument("--max-steps", type=int, default=None)
    synthesis.add_argument("--quiet", action="store_true")

    p_synth = sub.add_parser("synth", parents=[synthesis],
                             help="synthesize a circuit from a moment file")
    p_synth.set_defaults(run=_cmd_synth, out=os.path.join(out_dir, "circuit.json"))
    p_synth.add_argument("--moments", required=True)
    p_synth.add_argument("--out", help="circuit path (default $GCSYNTH_OUT/circuit.json)")

    p_tomo = sub.add_parser("tomo-sim", parents=[synthesis],
                            help="sampled tomography of a hidden GCS")
    p_tomo.set_defaults(run=_cmd_tomo_sim, out=os.path.join(out_dir, "report.json"))
    p_tomo.add_argument("--seed", type=int, required=True)
    p_tomo.add_argument("--hidden-ops", type=int, default=5)
    p_tomo.add_argument("--out", help="report path (default $GCSYNTH_OUT/report.json)")

    p_verify = sub.add_parser("verify", help="check a circuit against a hidden state")
    p_verify.set_defaults(run=_cmd_verify)
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
    p_run.set_defaults(run=_cmd_lqc_run, out=os.path.join(out_dir, "moments.json"))
    p_run.add_argument("--circuit", required=True)
    p_run.add_argument("--algebra", required=True)
    p_run.add_argument("--out", help="moments path (default $GCSYNTH_OUT/moments.json)")
    p_run.add_argument("--recover-circuit", action="store_true",
                       help="also synthesize a preparation circuit for the final state")
    p_run.add_argument("--epsilon", type=float, default=1e-4)
    p_run.add_argument("--delta", type=float, default=0.05)
    p_run.add_argument("--quiet", action="store_true")
    return parser


def _cmd_algebra_list(args):
    for entry in catalog.CATALOG:
        print(f"{entry.name:6s} {entry.flag:8s} {entry.description}")


def _cmd_algebra_export(args):
    entry = next(e for e in catalog.CATALOG if e.name == args.name)
    value = getattr(args, entry.parameter)
    if value is None:
        raise InvalidParameter(f"{entry.flag} is required for {entry.name}")
    serialize.save_algebra(entry.build(value), args.out)
    print(args.out)


def _cmd_synth(args):
    algebra = _resolve_algebra(args.algebra)
    moments, label = serialize.load_moments(args.moments)
    _check_label(algebra.label(), label, args.moments)
    budget = pipeline.make_budget(args.epsilon, args.delta, algebra)
    report = pipeline.synthesize(moments, algebra, budget, max_steps=args.max_steps)
    _log(f"d trace: {['%.3e' % d for d in report.trace]}", args.quiet)
    _log(f"K' = {report.steps_jacobi} jacobi + {report.steps_weyl} weyl ops", args.quiet)
    serialize.save_circuit(report.ops, report.kind_tags, report.trace,
                           algebra.label(), args.out)
    print(args.out)


def _cmd_tomo_sim(args):
    algebra = _resolve_algebra(args.algebra)
    handle = hidden_gcs(algebra, args.seed, args.hidden_ops)
    budget = pipeline.make_budget(args.epsilon, args.delta, algebra)
    report = pipeline.synthesize(handle, algebra, budget, seed=args.seed,
                                 max_steps=args.max_steps)
    check = pipeline.verify(report, handle.reference_state(), algebra)
    report.fidelity = check.fidelity
    report.distance = check.distance
    _log(f"d trace: {['%.3e' % d for d in report.trace]}", args.quiet)
    _log(f"fidelity {check.fidelity:.6f}, distance {check.distance:.3e} "
         f"(target epsilon {args.epsilon})", args.quiet)
    serialize.save_report(report, args.out)
    print(args.out)


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
    serialize.save_moments(final, algebra.label(), args.out)
    print(args.out)
    if args.recover_circuit:
        report = lqc.final_state_query(final, algebra, budget)
        circuit_path = os.path.splitext(args.out)[0] + ".circuit.json"
        serialize.save_circuit(report.ops, report.kind_tags, report.trace,
                               algebra.label(), circuit_path)
        print(circuit_path)


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        args.run(args)
        return 0
    except (GcsynthError, ValueError, OSError) as exc:
        status, record = exit_record(exc)
        print(json.dumps(record), file=sys.stderr)
        return status


if __name__ == "__main__":
    sys.exit(main())
