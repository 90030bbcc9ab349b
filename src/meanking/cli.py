"""Command-line front end.

Subcommands: ``bases gen|check``, ``strategy build``, ``run`` and
``security lemma|attack-eval``. Every command prints a canonical JSON
report (including a manifest with input/output digests) and signals its
result through the exit code:

    0  success
    1  usage, I/O or file-format error: an ``OSError`` or ``ValueError``
    2  a failed verdict, or ``bases.Refused``: a failed solve, an input over budget
    3  protocol aborted (a test position disagreed)

All randomness flows from --seed; reruns with identical arguments produce
byte-identical files and output. MEANKING_TOL, when set, is the default
of ``--tol``; a tolerance must be a number strictly between 0 and 1.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Callable, NamedTuple, Sequence

from . import __version__, attack, bases, protocol, qmath, retrodiction, security
from .serialize import canonical_dumps, file_digest, write_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_ABORT = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract reserves 2 for
    # validation failures, so remap
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _tol(text: str) -> float:
    """A tolerance from the command line or MEANKING_TOL: a number in (0, qmath.MAX_TOL)."""
    try:
        return qmath.check_tol(float(text), qmath.POSITIVE_FLOOR, "positive floor")
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number above 0 and below 1, not {text!r}")


class _Result(NamedTuple):
    """What a command computed; ``main`` prints it with its manifest."""

    report: dict
    config: dict
    inputs: Sequence = ()
    outputs: Sequence = ()
    code: int = EXIT_OK


def _manifest(command: str, result: _Result) -> dict:
    return {
        "command": command,
        "version": __version__,
        "config": result.config,
        "inputs": {str(p): file_digest(p) for p in result.inputs},
        "outputs": {str(p): file_digest(p) for p in result.outputs},
    }


class _Attack(NamedTuple):
    make: Callable  # (basis set, n, params) -> AttackModel
    defaults: dict  # every parameter the attack takes, as command-line text
    swept: str | None = None  # the parameter --sweep scales


def _finite(params: dict, key: str) -> float:
    """Attack parameter ``key`` as a float, refused before any arithmetic unless it is finite."""
    try:
        value = float(params[key])
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"attack parameter {key} must be finite, not {params[key]!r}")
    return value


def _integer(params: dict, key: str, low: int, high: float = math.inf) -> int:
    """Attack parameter ``key`` as an integer, refused unless it is from ``low`` to ``high``."""
    try:
        value = int(params[key])
    except ValueError:
        value = low - 1
    if not low <= value <= high:
        span = f">= {low}" if high == math.inf else f"from {low} to {high}"
        raise ValueError(f"attack parameter {key} must be an integer {span}, not {params[key]!r}")
    return value


_ATTACKS = {
    # b is 1-based on the command line, the index of one of the k bases
    "intercept-resend": _Attack(
        lambda bs, n, p: attack.intercept_resend(bs, _integer(p, "b", 1, bs.k) - 1, n=n),
        {"b": "1"}),
    "probe": _Attack(
        lambda bs, n, p: attack.probe_entangle(bs.dim, _finite(p, "theta"), n=n,
                                               d_eve=_integer(p, "d_eve", 2)),
        {"theta": "0.5", "d_eve": "2"}, "theta"),
    "source-replace": _Attack(
        lambda bs, n, p: attack.source_replace(bs.dim, _finite(p, "eps"), n=n),
        {"eps": "0.1"}, "eps"),
}


def _split_attack_spec(spec: str):
    """``name:key=value,...`` as ``(name, params)`` with defaults; ``file:PATH`` keeps PATH.

    An unknown name, or a key the attack does not take, is an error, not silently ignored.
    """
    name, _, rest = spec.partition(":")
    if name == "file":
        return name, {"path": rest}
    if name not in _ATTACKS and name not in ("none", ""):
        raise ValueError(f"unknown attack {name!r}")
    params = dict(_ATTACKS[name].defaults) if name in _ATTACKS else {}
    for chunk in filter(None, rest.split(",")):
        key, _, value = chunk.partition("=")
        if not value:
            raise ValueError(f"malformed attack parameter {chunk!r}")
        if key not in params:
            raise ValueError(f"attack {name!r} takes no parameter {key!r}")
        params[key] = value
    return name, params


def _make_attack(name: str, params: dict, basis_set, n: int):
    if name in ("none", ""):
        return None
    if name == "file":
        return attack.load_attack(params["path"])
    return _ATTACKS[name].make(basis_set, n, params)


def _load_strategy_for(args) -> retrodiction.Strategy:
    if args.strategy:
        return retrodiction.load_strategy(args.strategy)
    if args.bases:
        return retrodiction.build_strategy(bases.load_basis_set(args.bases))
    return retrodiction.build_strategy(bases.gen_mub(2 if args.dim is None else args.dim))


def _security_result(args, strategy, payload: dict, code: int = EXIT_OK, **config) -> _Result:
    """Write a security report to --out if asked; echo the dimension the strategy has."""
    if args.out:
        write_json(args.out, payload)
    return _Result(payload, {"dim": strategy.d, "n": args.n, **config},
                   inputs=[p for p in [args.bases, args.strategy] if p],
                   outputs=[args.out] if args.out else [], code=code)


def _cmd_bases_gen(args) -> _Result:
    bs = bases.gen_mub(args.dim)
    report = bases.validate(bs, args.tol)  # before the write, so a refused tol leaves no file
    bases.save_basis_set(bs, args.out)
    return _Result(report.to_dict(), {"dim": args.dim, "tol": args.tol}, outputs=[args.out])


def _cmd_bases_check(args) -> _Result:
    bs = bases.load_basis_set(args.infile)
    report = bases.validate(bs, args.tol)
    ok = report.orthonormal and report.nondegenerate and report.classical_model
    return _Result(report.to_dict(), {"in": args.infile, "tol": args.tol}, inputs=[args.infile],
                   code=EXIT_OK if ok else EXIT_VALIDATION)


def _cmd_strategy_build(args) -> _Result:
    bs = bases.load_basis_set(args.bases)
    strategy = retrodiction.build_strategy(bs, residual_tol=args.residual_tol)
    retrodiction.save_strategy(strategy, args.out)
    report = {  # counted and bounded without listing the guessing functions
        "entries": strategy.d**bs.k,
        "min_weight": strategy.min_weight,
        "max_residual": strategy.max_residual,
        "completeness_residual": strategy.completeness_residual,
    }
    return _Result(report, {"bases": args.bases, "residual_tol": args.residual_tol},
                   inputs=[args.bases], outputs=[args.out])


def _cmd_run(args) -> _Result:
    strategy = retrodiction.load_strategy(args.strategy)
    cfg = protocol.ProtocolConfig(
        d=strategy.basis_set.dim,
        n=args.n,
        rounds=args.rounds,
        test_fraction=args.test_fraction,
        seed=args.seed,
    )
    am = _make_attack(*_split_attack_spec(args.attack), strategy.basis_set, args.n)
    transcript = protocol.run_protocol(cfg, strategy, am)
    protocol.save_transcript(transcript, args.out)
    instances = len(transcript.codes)
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
        write_json(args.summary, summary)
        outputs.append(args.summary)
    config = {key: getattr(args, key)
              for key in ("strategy", "rounds", "n", "test_fraction", "seed", "attack")}
    return _Result(summary, config, inputs=[args.strategy], outputs=outputs,
                   code=EXIT_OK if transcript.accepted else EXIT_ABORT)


def _cmd_security_lemma(args) -> _Result:
    strategy = _load_strategy_for(args)
    report = security.product_commutant_check(strategy, args.n, args.tol)
    payload = report.to_dict()
    payload["witness_identity_deviation"] = security.witness_identity_deviation(report)
    return _security_result(args, strategy, payload, tol=args.tol,
                            code=EXIT_OK if report.solution_dim == 1 else EXIT_VALIDATION)


def _cmd_security_attack_eval(args) -> _Result:
    strategy = _load_strategy_for(args)
    name, params = _split_attack_spec(args.attack)
    am = _make_attack(name, params, strategy.basis_set, args.n)
    if am is None:  # built before the sweep budget, so a block over budget exits 2 at once
        am = attack.identity_attack(strategy.d, n=args.n)
    if am.n != args.n:  # an attack file has its own block length
        raise ValueError(f"attack block length {am.n} differs from --n {args.n}")
    key = _ATTACKS[name].swept if name in _ATTACKS else None
    if args.sweep < 0:
        raise ValueError(f"--sweep must be 0 or more steps, not {args.sweep}")
    if args.sweep and key is None:
        raise ValueError(f"attack {args.attack!r} has no parameter to sweep")
    grid = (strategy.basis_set.k * strategy.d) ** am.n  # the (b, i) pairs of one evaluation
    if args.sweep * grid > bases.MAX_SWEEP_POINTS:
        raise bases.OverBudget(f"sweep too large: {args.sweep} steps of {grid} grid points, "
                               f"budget {bases.MAX_SWEEP_POINTS} points")
    payload = attack.evaluate_attack(strategy, am).to_dict()
    if args.sweep:
        value = _finite(params, key)
        curve = []
        for step in range(1, args.sweep + 1):
            param = value * step / args.sweep
            swept = _make_attack(name, {**params, key: param}, strategy.basis_set, args.n)
            swept_report = attack.evaluate_attack(strategy, swept)
            curve.append(
                {
                    key: param,
                    "detection_probability": swept_report.detection_probability,
                    "leakage": swept_report.leakage,
                }
            )
        payload["curve"] = curve
    return _security_result(args, strategy, payload, attack=args.attack, sweep=args.sweep)


def _build_parser() -> _Parser:
    parser = _Parser(prog="meanking", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"meanking {__version__}")
    tol = os.environ.get("MEANKING_TOL", str(qmath.DEFAULT_TOL))  # parsed by --tol commands only
    sub = parser.add_subparsers(dest="command", required=True)

    p_bases = sub.add_parser("bases", help="generate or validate basis sets")
    bsub = p_bases.add_subparsers(dest="subcommand", required=True)
    p_gen = bsub.add_parser("gen")
    p_gen.add_argument("--dim", type=int, required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--tol", type=_tol, default=tol)
    p_gen.set_defaults(func=_cmd_bases_gen)
    p_check = bsub.add_parser("check")
    p_check.add_argument("--in", dest="infile", required=True)
    p_check.add_argument("--tol", type=_tol, default=tol)
    p_check.set_defaults(func=_cmd_bases_check)

    p_strategy = sub.add_parser("strategy", help="solve safe vectors and weights")
    ssub = p_strategy.add_subparsers(dest="subcommand", required=True)
    p_build = ssub.add_parser("build")
    p_build.add_argument("--bases", required=True)
    p_build.add_argument("--out", required=True)
    p_build.add_argument("--residual-tol", type=_tol, default=qmath.RESIDUAL_TOL)
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
    # where both security commands take their strategy, and where they write the report;
    # --dim has no argparse default, so that an explicit --dim 2 also counts as given
    source = argparse.ArgumentParser(add_help=False)
    one_source = source.add_mutually_exclusive_group()
    one_source.add_argument("--dim", type=int)
    one_source.add_argument("--bases")
    one_source.add_argument("--strategy")
    source.add_argument("--n", type=int, default=1)
    source.add_argument("--out")
    p_lemma = secsub.add_parser("lemma", parents=[source])
    p_lemma.add_argument("--tol", type=_tol, default=tol)
    p_lemma.set_defaults(func=_cmd_security_lemma)
    p_eval = secsub.add_parser("attack-eval", parents=[source])
    p_eval.add_argument("--attack", required=True)
    p_eval.add_argument("--sweep", type=int, default=0)
    p_eval.set_defaults(func=_cmd_security_attack_eval)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    command = " ".join(filter(None, [args.command, getattr(args, "subcommand", None)]))
    try:
        result = args.func(args)
        payload = {"report": result.report, "manifest": _manifest(command, result)}
        sys.stdout.write(canonical_dumps(payload) + "\n")
        return result.code
    except (OSError, ValueError, bases.Refused) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION if isinstance(exc, bases.Refused) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
