"""Command-line front end.

Subcommands: ``bases gen|check``, ``strategy build``, ``run`` and
``security lemma|attack-eval``. Every command prints a canonical JSON
report (including a manifest with input/output digests) and signals its
result through the exit code:

    0  success
    1  usage, I/O or file-format error
    2  validation or solve failure
    3  protocol aborted (a test position disagreed)

All randomness flows from --seed; reruns with identical arguments produce
byte-identical files and output. MEANKING_TOL overrides the default
numerical tolerance of the check commands.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__, attack, bases, protocol, retrodiction, security
from .serialize import canonical_dumps, file_digest

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_ABORT = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract reserves 2 for
    # validation failures, so remap
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _default_tol() -> float:
    return float(os.environ.get("MEANKING_TOL", "1e-9"))


def _emit(payload: dict) -> None:
    sys.stdout.write(canonical_dumps(payload))
    sys.stdout.write("\n")


def _manifest(command: str, config: dict, inputs=(), outputs=()) -> dict:
    return {
        "command": command,
        "version": __version__,
        "config": config,
        "inputs": {str(p): file_digest(p) for p in inputs},
        "outputs": {str(p): file_digest(p) for p in outputs},
    }


def _parse_attack_spec(spec: str, basis_set, n: int):
    if spec in ("none", ""):
        return None
    name, _, rest = spec.partition(":")
    if name == "file":
        return attack.load_attack(rest)
    params = {}
    for chunk in rest.split(","):
        if not chunk:
            continue
        key, _, value = chunk.partition("=")
        if not value:
            raise ValueError(f"malformed attack parameter {chunk!r}")
        params[key] = value
    if name == "intercept-resend":
        bstar = int(params.get("b", "1")) - 1  # 1-based on the command line
        return attack.intercept_resend(basis_set, bstar, n=n)
    if name == "probe":
        return attack.probe_entangle(
            basis_set.dim, float(params.get("theta", "0.5")), n=n,
            d_eve=int(params.get("d_eve", "2")),
        )
    if name == "source-replace":
        return attack.source_replace(basis_set.dim, float(params.get("eps", "0.1")), n=n)
    raise ValueError(f"unknown attack {name!r}")


def _load_strategy_for(args) -> retrodiction.Strategy:
    if getattr(args, "strategy", None):
        return retrodiction.load_strategy(args.strategy)
    if getattr(args, "bases", None):
        return retrodiction.build_strategy(bases.load_basis_set(args.bases))
    return retrodiction.build_strategy(bases.gen_mub(args.dim))


def _cmd_bases_gen(args) -> int:
    bs = bases.gen_mub(args.dim)
    bases.save_basis_set(bs, args.out)
    report = bases.validate(bs, args.tol)
    _emit(
        {
            "report": report.to_dict(),
            "manifest": _manifest(
                "bases gen", {"dim": args.dim, "tol": args.tol}, outputs=[args.out]
            ),
        }
    )
    return EXIT_OK


def _cmd_bases_check(args) -> int:
    bs = bases.load_basis_set(args.infile)
    report = bases.validate(bs, args.tol)
    _emit(
        {
            "report": report.to_dict(),
            "manifest": _manifest(
                "bases check", {"in": args.infile, "tol": args.tol}, inputs=[args.infile]
            ),
        }
    )
    ok = report.orthonormal and report.nondegenerate and report.classical_model
    return EXIT_OK if ok else EXIT_VALIDATION


def _cmd_strategy_build(args) -> int:
    bs = bases.load_basis_set(args.bases)
    strategy = retrodiction.build_strategy(bs, residual_tol=args.residual_tol)
    retrodiction.save_strategy(strategy, args.out)
    _emit(
        {
            "report": {
                "entries": len(strategy.safe_vectors),
                "min_weight": float(strategy.weights.min()),
                "max_residual": max(sv.residual for sv in strategy.safe_vectors),
                "completeness_residual": strategy.completeness_residual,
            },
            "manifest": _manifest(
                "strategy build",
                {"bases": args.bases, "residual_tol": args.residual_tol},
                inputs=[args.bases],
                outputs=[args.out],
            ),
        }
    )
    return EXIT_OK


def _cmd_run(args) -> int:
    strategy = retrodiction.load_strategy(args.strategy)
    cfg = protocol.ProtocolConfig(
        d=strategy.basis_set.dim,
        n=args.n,
        rounds=args.rounds,
        test_fraction=args.test_fraction,
        seed=args.seed,
    )
    am = _parse_attack_spec(args.attack, strategy.basis_set, args.n)
    transcript = protocol.run_protocol(cfg, strategy, am)
    protocol.save_transcript(transcript, args.out)
    instances = len(transcript.records)
    tests = len(transcript.test_indices)
    summary = {
        "accepted": transcript.accepted,
        "agreement_rate": protocol.agreement_rate(transcript),
        "instances": instances,
        "tests": tests,
        "key_length": instances - tests,
    }
    outputs = [args.out]
    if args.summary:
        with open(args.summary, "w", encoding="utf-8") as fh:
            fh.write(canonical_dumps(summary))
            fh.write("\n")
        outputs.append(args.summary)
    _emit(
        {
            "report": summary,
            "manifest": _manifest(
                "run",
                {
                    "strategy": args.strategy,
                    "rounds": args.rounds,
                    "n": args.n,
                    "test_fraction": args.test_fraction,
                    "seed": args.seed,
                    "attack": args.attack,
                },
                inputs=[args.strategy],
                outputs=outputs,
            ),
        }
    )
    return EXIT_OK if transcript.accepted else EXIT_ABORT


def _cmd_security_lemma(args) -> int:
    strategy = _load_strategy_for(args)
    if args.n == 1:
        report = security.eigenvector_constraint_dim(strategy.safe_vectors, args.tol)
    else:
        report = security.product_commutant_check(strategy, args.n, args.tol)
    payload = report.to_dict()
    payload["witness_identity_deviation"] = security.witness_identity_deviation(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(canonical_dumps(payload))
            fh.write("\n")
    _emit(
        {
            "report": payload,
            "manifest": _manifest(
                "security lemma",
                {"dim": args.dim, "n": args.n, "tol": args.tol},
                inputs=[p for p in [args.bases, args.strategy] if p],
                outputs=[args.out] if args.out else [],
            ),
        }
    )
    ok = report.solution_dim == 1
    return EXIT_OK if ok else EXIT_VALIDATION


def _cmd_security_attack_eval(args) -> int:
    strategy = _load_strategy_for(args)
    am = _parse_attack_spec(args.attack, strategy.basis_set, args.n)
    if am is None:
        am = attack.identity_attack(strategy.basis_set.dim, n=args.n)
    report = attack.evaluate_attack(strategy, am)
    payload = report.to_dict()
    if args.sweep and args.attack.startswith(("probe", "source-replace")):
        name, _, rest = args.attack.partition(":")
        key, value = ("theta", 0.5) if name == "probe" else ("eps", 0.1)
        for chunk in rest.split(","):
            if chunk.startswith(key + "="):
                value = float(chunk.split("=")[1])
        curve = []
        for step in range(1, args.sweep + 1):
            param = value * step / args.sweep
            spec = f"{name}:{key}={param}"
            swept = _parse_attack_spec(spec, strategy.basis_set, args.n)
            swept_report = attack.evaluate_attack(strategy, swept)
            curve.append(
                {
                    key: param,
                    "detection_probability": swept_report.detection_probability,
                    "leakage": swept_report.leakage,
                }
            )
        payload["curve"] = curve
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(canonical_dumps(payload))
            fh.write("\n")
    _emit(
        {
            "report": payload,
            "manifest": _manifest(
                "security attack-eval",
                {"dim": args.dim, "n": args.n, "attack": args.attack, "sweep": args.sweep},
                inputs=[p for p in [args.bases, args.strategy] if p],
                outputs=[args.out] if args.out else [],
            ),
        }
    )
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="meanking", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"meanking {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bases = sub.add_parser("bases", help="generate or validate basis sets")
    bsub = p_bases.add_subparsers(dest="subcommand", required=True)
    p_gen = bsub.add_parser("gen")
    p_gen.add_argument("--dim", type=int, required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--tol", type=float, default=_default_tol())
    p_gen.set_defaults(func=_cmd_bases_gen)
    p_check = bsub.add_parser("check")
    p_check.add_argument("--in", dest="infile", required=True)
    p_check.add_argument("--tol", type=float, default=_default_tol())
    p_check.set_defaults(func=_cmd_bases_check)

    p_strategy = sub.add_parser("strategy", help="solve safe vectors and weights")
    ssub = p_strategy.add_subparsers(dest="subcommand", required=True)
    p_build = ssub.add_parser("build")
    p_build.add_argument("--bases", required=True)
    p_build.add_argument("--out", required=True)
    p_build.add_argument("--residual-tol", type=float, default=1e-8)
    p_build.set_defaults(func=_cmd_strategy_build)

    p_run = sub.add_parser("run", help="simulate the protocol")
    p_run.add_argument("--strategy", required=True)
    p_run.add_argument("--rounds", type=int, required=True)
    p_run.add_argument("--n", type=int, default=1)
    p_run.add_argument("--test-fraction", type=float, default=0.1)
    p_run.add_argument("--seed", type=int, required=True)
    p_run.add_argument("--attack", default="none")
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--summary")
    p_run.set_defaults(func=_cmd_run)

    p_security = sub.add_parser("security", help="lemma and attack evaluation")
    secsub = p_security.add_subparsers(dest="subcommand", required=True)
    p_lemma = secsub.add_parser("lemma")
    p_lemma.add_argument("--dim", type=int, default=2)
    p_lemma.add_argument("--n", type=int, default=1)
    p_lemma.add_argument("--bases")
    p_lemma.add_argument("--strategy")
    p_lemma.add_argument("--tol", type=float, default=_default_tol())
    p_lemma.add_argument("--out")
    p_lemma.set_defaults(func=_cmd_security_lemma)
    p_eval = secsub.add_parser("attack-eval")
    p_eval.add_argument("--attack", required=True)
    p_eval.add_argument("--dim", type=int, default=2)
    p_eval.add_argument("--n", type=int, default=1)
    p_eval.add_argument("--bases")
    p_eval.add_argument("--strategy")
    p_eval.add_argument("--sweep", type=int, default=0)
    p_eval.add_argument("--out")
    p_eval.set_defaults(func=_cmd_security_attack_eval)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (bases.UnsupportedDimension, bases.FormatError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (
        retrodiction.ResidualTooLarge,
        retrodiction.NotMaximal,
        retrodiction.Infeasible,
        protocol.ProtocolError,
        attack.ZeroProbabilityOutcome,
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
