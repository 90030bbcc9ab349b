"""The three benchmark workloads.

Each workload has three parts:

- ``setup(seed, size)`` builds the inputs from the seed. It is what the
  ``setup_s`` metric times, in fresh interpreters.
- ``references(inputs)`` computes the expected results by independent
  routes: the closed forms in ``tests/oracles.py``, the operator form of an
  attack, exact relations. It runs once, untimed and untraced.
- ``run_pass(...)`` runs one timed pass and returns one :class:`Op` per
  operation, each carrying the fingerprint failures found for it. It calls
  ``tick()`` before each operation, so the caller can sample the machine's
  speed between operations (see ``calib.py``).

Every workload is a closed loop with one client: the next operation
starts only when the previous one has returned.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from time import perf_counter

import numpy as np

from meanking import attack, bases, protocol, retrodiction, security

import proc

# size -> knobs; "smoke" runs every fingerprint in seconds
SIZES = {
    "full": {
        "cli_rounds": 10_000,
        "cli_attacked_rounds": 500,
        "protocol_blocks": (20_000, 10_000, 10_000, 10_000),
        "scaling_n": 3,
    },
    "smoke": {
        "cli_rounds": 1_000,
        "cli_attacked_rounds": 100,
        "protocol_blocks": (1_000, 500, 500, 500),
        "scaling_n": 2,
    },
}

TOL = 1e-9  # agreement of two exact routes
RESIDUAL_TOL = 1e-8  # POVM completeness, as build_strategy promises
BAND_SIGMAS = 5.0  # binomial band for sampled against enumerated rates


@dataclass
class Op:
    """One timed operation and the fingerprint failures found for it."""

    kind: str
    seconds: float  # wall time
    errors: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    start: float = 0.0  # perf_counter() when the operation began
    scale: float = 1.0  # calibrated over wall time, set by the runner (calib.py)

    @property
    def calibrated_s(self) -> float:
        return self.seconds * self.scale


def _timed_op(kind, fn, *args):
    """Run ``fn`` as one operation; an exception is recorded, not raised."""
    t0 = perf_counter()
    try:
        value = fn(*args)
    except Exception as exc:  # the benchmark must report every failure
        return Op(kind, perf_counter() - t0, [f"raised {type(exc).__name__}: {exc}"],
                  start=t0), None
    return Op(kind, perf_counter() - t0, start=t0), value


def _expect(op: Op, ok: bool, what: str) -> None:
    if not ok:
        op.errors.append(what)


def _close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol


def _binomial_band(rate: float, p_expected: float, trials: int) -> bool:
    sigma = math.sqrt(max(p_expected * (1.0 - p_expected), 1e-12) / trials)
    return abs(rate - p_expected) <= BAND_SIGMAS * sigma + 1.0 / trials


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _completeness(strategy) -> float:
    """Max deviation of sum_x p(x) |eta_x><eta_x| from the identity."""
    etas = np.asarray([sv.eta for sv in strategy.safe_vectors])
    total = np.einsum("x,xi,xj->ij", strategy.weights, etas, etas.conj())
    return float(np.max(np.abs(total - np.eye(etas.shape[1]))))


def _check_strategy(op: Op, strategy, d: int) -> None:
    nx = d ** (d + 1)
    _expect(op, len(strategy.safe_vectors) == nx, f"{len(strategy.safe_vectors)} entries, want {nx}")
    _expect(op, strategy.completeness_residual <= RESIDUAL_TOL,
            f"completeness residual {strategy.completeness_residual:.3e}")
    _expect(op, _completeness(strategy) <= RESIDUAL_TOL, "recomputed completeness fails")
    # for d + 1 MUBs the maximal strategy has uniform weights
    dev = float(np.max(np.abs(strategy.weights - 1.0 / nx)))
    _expect(op, dev <= RESIDUAL_TOL, f"weights deviate from 1/{nx} by {dev:.3e}")


def _check_validation(op: Op, report, d: int) -> None:
    ok = report.orthonormal and report.unbiased and report.nondegenerate and report.classical_model
    _expect(op, ok, f"d={d} basis set failed validation: {report.to_dict()}")
    _expect(op, report.span_rank == d * d, f"span rank {report.span_rank}, want {d * d}")


def opform_detection(strategy, am) -> float:
    """Detection probability with Alice's states from the operator form.

    Same enumeration as the library's direct route, but every conditional
    state comes from ``build_E_operators`` + ``reconstruct_alice_state``.
    """
    bs = strategy.basis_set
    n = am.n
    ps = retrodiction.tensor_strategy(strategy, n)
    tuples = list(ps.guessing_tuples())
    etas = np.asarray([ps.safe_vector_grouped(xs) for xs in tuples])
    weights = np.asarray([ps.weight(xs) for xs in tuples])
    xvals = np.asarray(tuples)  # (tuple, slot, basis)
    ops = attack.build_E_operators(am)
    total = 0.0
    for bvec in product(range(bs.k), repeat=n):
        for ivec in product(range(bs.dim), repeat=n):
            rho = attack.reconstruct_alice_state(am, bs, bvec, ivec, ops)
            prob = float(np.trace(rho).real)
            born = weights * np.einsum("xi,ij,xj->x", etas.conj(), rho, etas).real
            mask = np.all(xvals[:, np.arange(n), list(bvec)] == np.asarray(ivec), axis=1)
            total += prob - float(born @ mask)
    return total / bs.k**n


def _product_detection(single: float, n: int) -> float:
    """Block detection of an attack that acts independently on n instances."""
    return 1.0 - (1.0 - single) ** n


def _seeds(seed: int, count: int):
    rng = np.random.default_rng(seed)
    return [int(v) for v in rng.integers(1, 2**31 - 1, size=count)]


# ---------------------------------------------------------------------------
# cli-pipeline
# ---------------------------------------------------------------------------


class CliPipeline:
    """The README pipeline, each step a fresh ``meanking`` process."""

    name = "cli-pipeline"
    steps = ("bases-gen", "bases-check", "strategy-build", "run", "run-attacked",
             "security-lemma", "attack-eval", "bases-gen-d5")
    # documented exit codes: 3 is the protocol abort of the full-test run
    expected_exit = {"run-attacked": 3}

    @staticmethod
    def setup(seed: int, size: str) -> dict:
        knobs = SIZES[size]
        honest_seed, attacked_seed = _seeds(seed, 2)
        argv = {
            "bases-gen": ["bases", "gen", "--dim", "3", "--out", "bases3.json"],
            "bases-check": ["bases", "check", "--in", "bases3.json"],
            "strategy-build": ["strategy", "build", "--bases", "bases3.json",
                               "--out", "strategy3.json"],
            "run": ["run", "--strategy", "strategy3.json", "--rounds", str(knobs["cli_rounds"]),
                    "--seed", str(honest_seed), "--test-fraction", "0.1",
                    "--out", "transcript.jsonl", "--summary", "summary.json"],
            "run-attacked": ["run", "--strategy", "strategy3.json",
                             "--rounds", str(knobs["cli_attacked_rounds"]),
                             "--seed", str(attacked_seed), "--attack", "intercept-resend:b=1",
                             "--test-fraction", "1.0", "--out", "t.jsonl"],
            "security-lemma": ["security", "lemma", "--dim", "2", "--n", "2"],
            "attack-eval": ["security", "attack-eval", "--attack", "probe:theta=0.8",
                            "--dim", "2", "--sweep", "8"],
            "bases-gen-d5": ["bases", "gen", "--dim", "5", "--out", "bases5.json"],
        }
        return {"argv": argv, "knobs": knobs}

    @staticmethod
    def references(inputs: dict) -> dict:
        import oracles

        s2 = retrodiction.build_strategy(bases.gen_mub(2))
        s3 = retrodiction.build_strategy(bases.gen_mub(3))
        return {
            "probe_curve": [oracles.probe_detection(s2, 0.8 * step / 8) for step in range(1, 9)],
            "intercept_d3": oracles.intercept_resend_detection(s3, 0),
        }

    @staticmethod
    def _check_report(op: Op, step: str, report: dict, inputs: dict, refs: dict) -> None:
        if step in ("bases-gen", "bases-check", "bases-gen-d5"):
            ok = all(report[key] for key in ("orthonormal", "unbiased", "nondegenerate",
                                              "classical_model"))
            _expect(op, ok, f"{step}: basis set reported invalid")
        elif step == "strategy-build":
            _expect(op, report["entries"] == 81, f"strategy has {report['entries']} entries")
            _expect(op, report["completeness_residual"] <= RESIDUAL_TOL, "completeness residual")
        elif step == "run":
            rounds = inputs["knobs"]["cli_rounds"]
            _expect(op, report["accepted"] is True, "honest run aborted")
            _expect(op, report["agreement_rate"] == 1.0, "honest agreement below 1")
            _expect(op, report["instances"] == rounds, "wrong instance count")
        elif step == "run-attacked":
            rounds = inputs["knobs"]["cli_attacked_rounds"]
            _expect(op, report["accepted"] is False, "full-test intercept-resend run accepted")
            _expect(op, _binomial_band(report["agreement_rate"], 1.0 - refs["intercept_d3"], rounds),
                    f"agreement {report['agreement_rate']} outside the band of "
                    f"{1.0 - refs['intercept_d3']:.4f}")
        elif step == "security-lemma":
            _expect(op, report["solution_dim"] == 1, f"solution_dim {report['solution_dim']}")
        elif step == "attack-eval":
            got = [pt["detection_probability"] for pt in report["curve"]]
            want = refs["probe_curve"]
            _expect(op, len(got) == len(want) and all(_close(a, b) for a, b in zip(got, want)),
                    f"probe curve {got} differs from the closed form {want}")

    @staticmethod
    def run_pass(inputs: dict, refs: dict, state: dict, workdir: Path, trace_dir: Path | None,
                 tick):
        """One pipeline pass; ``trace_dir`` set runs the traced child instead."""
        ops = []
        for step in CliPipeline.steps:
            tick()
            argv = inputs["argv"][step]
            if trace_dir is None:
                child = ["-m", "meanking.cli", *argv]
            else:
                child = [str(proc.ROOT / "perfbench" / "cli_child.py"),
                         str(trace_dir / f"{step}.json"), step, *argv]
            t0 = perf_counter()
            try:
                res = proc.run_child(child, workdir, workdir / "stderr.txt")
            except OSError as exc:
                ops.append(Op(step, perf_counter() - t0, [f"could not start: {exc}"], start=t0))
                continue
            op = Op(step, res.wall_s, extra={"maxrss_mb": res.maxrss_mb}, start=t0)
            ops.append(op)
            rc = CliPipeline.expected_exit.get(step, 0)
            _expect(op, res.returncode == rc,
                    f"{step}: exit {res.returncode}, want {rc}; {res.stderr[-300:]!r}")
            try:
                report = json.loads(res.stdout)["report"]
                CliPipeline._check_report(op, step, report, inputs, refs)
            except (ValueError, KeyError, TypeError) as exc:
                op.errors.append(f"{step}: unreadable report: {exc}")
            # two passes with one seed: identical stdout and output files
            outputs = [argv[pos + 1] for pos, arg in enumerate(argv) if arg in ("--out", "--summary")]
            missing = [name for name in outputs if not (workdir / name).is_file()]
            _expect(op, not missing, f"{step}: no output {missing}")
            digests = {name: _sha((workdir / name).read_bytes())
                       for name in outputs if name not in missing}
            fingerprint = (_sha(res.stdout), digests)
            first = state.setdefault(step, fingerprint)
            _expect(op, fingerprint == first, f"{step}: output differs from the first pass")
        return ops


# ---------------------------------------------------------------------------
# protocol-sim
# ---------------------------------------------------------------------------


class ProtocolSim:
    """Four protocol runs, each with sift, agreement, save and load."""

    name = "protocol-sim"

    @staticmethod
    def setup(seed: int, size: str) -> dict:
        blocks = SIZES[size]["protocol_blocks"]
        bs2, bs3 = bases.gen_mub(2), bases.gen_mub(3)
        s2, s3 = retrodiction.build_strategy(bs2), retrodiction.build_strategy(bs3)
        ir = attack.intercept_resend(bs2, 0, n=2)
        probe = attack.probe_entangle(3, 0.8, n=1)
        seeds = _seeds(seed, 4)
        runs = [
            ("honest-d3n1", s3, None, protocol.ProtocolConfig(3, 1, blocks[0], 0.1, seeds[0])),
            ("honest-d2n2", s2, None, protocol.ProtocolConfig(2, 2, blocks[1], 0.1, seeds[1])),
            ("intercept-d2n2", s2, ir, protocol.ProtocolConfig(2, 2, blocks[2], 0.1, seeds[2])),
            ("probe-d3n1", s3, probe, protocol.ProtocolConfig(3, 1, blocks[3], 0.1, seeds[3])),
        ]
        # exact enumeration stays in set-up: it sets the sampled rate's band
        detection = {name: attack.detection_probability(s, am)
                     for name, s, am, _ in runs if am is not None}
        return {"runs": runs, "detection": detection, "strategies": (s2, s3)}

    @staticmethod
    def references(inputs: dict) -> dict:
        import oracles

        s2, s3 = inputs["strategies"]
        return {
            "intercept-d2n2": _product_detection(oracles.intercept_resend_detection(s2, 0), 2),
            "probe-d3n1": oracles.probe_detection(s3, 0.8),
        }

    @staticmethod
    def run_pass(inputs: dict, refs: dict, state: dict, workdir: Path, trace_dir, tick):
        ops = []
        for name, strategy, am, cfg in inputs["runs"]:
            path = workdir / f"{name}.jsonl"
            tick()
            t0 = perf_counter()
            try:
                tr = protocol.run_protocol(cfg, strategy, am)
                accepted, keys = protocol.sift_and_test(tr)
                rate = protocol.agreement_rate(tr)
                protocol.save_transcript(tr, path)
                t_saved = perf_counter()
                loaded = protocol.load_transcript(path)
            except Exception as exc:  # the benchmark must report every failure
                ops.append(Op(name, perf_counter() - t0, [f"raised {type(exc).__name__}: {exc}"],
                              start=t0))
                continue
            op = Op(name, perf_counter() - t0, start=t0, extra={
                "attacked": am is not None,
                "instances": len(tr.records),
                "user_s": t_saved - t0,  # what `meanking run` does in-process
            })
            ops.append(op)
            ProtocolSim._check(op, name, tr, accepted, keys, rate, loaded, am, cfg, inputs, refs)
            first = state.setdefault(name, _sha(path.read_bytes()))
            _expect(op, _sha(path.read_bytes()) == first, "transcript differs from the first pass")
        return ops

    @staticmethod
    def _check(op, name, tr, accepted, keys, rate, loaded, am, cfg, inputs, refs):
        records = tr.records
        _expect(op, len(records) == cfg.rounds * cfg.n, f"{len(records)} instances")
        hits = np.asarray([rec.i == rec.i_prime for rec in records])
        _expect(op, rate == hits.mean(), "agreement_rate disagrees with the records")
        tested_ok = all(hits[t] for t in tr.test_indices)
        _expect(op, accepted == tested_ok and tr.accepted == tested_ok,
                "accept verdict disagrees with the tested positions")
        _expect(op, loaded.records == records and loaded.test_indices == tr.test_indices
                and loaded.accepted == tr.accepted and loaded.config == cfg,
                "transcript does not round-trip through save/load")
        if am is None:
            _expect(op, rate == 1.0 and accepted, f"honest run: agreement {rate}, accepted {accepted}")
            _expect(op, keys.alice_key == keys.bob_key, "honest keys differ")
            return
        det = inputs["detection"][name]
        _expect(op, _close(det, refs[name]), f"enumerated detection {det} vs closed form {refs[name]}")
        blocks_ok = hits.reshape(cfg.rounds, cfg.n).all(axis=1).mean()
        _expect(op, _binomial_band(blocks_ok, 1.0 - det, cfg.rounds),
                f"block agreement {blocks_ok:.4f} outside the band of {1.0 - det:.4f}")


# ---------------------------------------------------------------------------
# exact-analysis
# ---------------------------------------------------------------------------


class ExactAnalysis:
    """Validation, strategy solves, exact attack enumeration and the lemma."""

    name = "exact-analysis"
    thetas = tuple(0.1 * step for step in range(1, 9))

    @staticmethod
    def setup(seed: int, size: str) -> dict:
        n_scaling = SIZES[size]["scaling_n"]
        bs2, bs3, bs5 = bases.gen_mub(2), bases.gen_mub(3), bases.gen_mub(5)
        s2, s3 = retrodiction.build_strategy(bs2), retrodiction.build_strategy(bs3)
        rng = np.random.default_rng(seed)
        randoms = [attack.random_attack(2, 2, 2, 2, rng) for _ in range(2)]
        grid = [(f"probe-{t:.1f}", attack.probe_entangle(2, t, n=2)) for t in ExactAnalysis.thetas]
        grid += [(f"intercept-b{b + 1}", attack.intercept_resend(bs2, b, n=2)) for b in range(3)]
        grid += [(f"random-{j}", am) for j, am in enumerate(randoms)]
        grid += [(f"scalarized-{j}", attack.scalarized_attack(am)) for j, am in enumerate(randoms)]
        return {
            "bases": {2: bs2, 3: bs3, 5: bs5},
            "strategies": {2: s2, 3: s3},
            "grid": grid,
            "opform_attack": randoms[0],
            "scaling": attack.intercept_resend(bs2, 0, n=n_scaling),
        }

    @staticmethod
    def references(inputs: dict) -> dict:
        import oracles

        s2 = inputs["strategies"][2]
        single = [oracles.intercept_resend_detection(s2, b) for b in range(3)]
        detection = {}
        for name, am in inputs["grid"]:
            if name.startswith("intercept-b"):
                detection[name] = _product_detection(single[int(name[-1]) - 1], 2)
            elif name.startswith("scalarized"):
                detection[name] = 0.0
            else:
                detection[name] = opform_detection(s2, am)
        return {
            "detection": detection,
            "scaling": _product_detection(single[0], inputs["scaling"].n),
        }

    @staticmethod
    def _opform_check(am, bs):
        ops = attack.build_E_operators(am)
        worst = 0.0
        for bvec in product(range(bs.k), repeat=am.n):
            for ivec in product(range(bs.dim), repeat=am.n):
                direct, _ = attack.alice_state_unnormalized(am, bs, bvec, ivec)
                via_ops = attack.reconstruct_alice_state(am, bs, bvec, ivec, ops)
                worst = max(worst, float(np.max(np.abs(direct - via_ops))))
        return worst

    @staticmethod
    def run_pass(inputs: dict, refs: dict, state: dict, workdir, trace_dir, tick):
        bs, strat = inputs["bases"], inputs["strategies"]
        ops = []

        def _timed(kind, fn, *args):
            tick()
            return _timed_op(kind, fn, *args)

        for d in (3, 5):
            op, report = _timed(f"validate-d{d}", bases.validate, bs[d])
            if report is not None:
                _check_validation(op, report, d)
            ops.append(op)
        for d in (2, 3):
            op, built = _timed(f"build-d{d}", retrodiction.build_strategy, bs[d])
            if built is not None:
                _check_strategy(op, built, d)
            ops.append(op)
        for name, am in inputs["grid"]:
            op, report = _timed("attack-grid", attack.evaluate_attack, strat[2], am)
            op.extra["attack"] = name
            if report is not None:
                want = refs["detection"][name]
                _expect(op, _close(report.detection_probability, want),
                        f"{name}: detection {report.detection_probability} vs {want}")
                _expect(op, 0.0 <= report.leakage <= 1.0 + TOL, f"{name}: leakage {report.leakage}")
                if name.startswith("scalarized"):
                    _expect(op, abs(report.leakage) <= 1e-8, f"{name}: leakage {report.leakage}")
            ops.append(op)
        op, worst = _timed("opform", ExactAnalysis._opform_check, inputs["opform_attack"], bs[2])
        if worst is not None:
            _expect(op, worst <= 1e-10, f"operator form differs from the direct route by {worst:.3e}")
        ops.append(op)
        op, report = _timed("eval-scaling", attack.evaluate_attack, strat[2], inputs["scaling"])
        if report is not None:
            _expect(op, _close(report.detection_probability, refs["scaling"]),
                    f"scaling case: detection {report.detection_probability} vs {refs['scaling']}")
        ops.append(op)
        op, report = _timed("lemma-d3n1", security.eigenvector_constraint_dim, strat[3].safe_vectors)
        if report is not None:
            _expect(op, report.solution_dim == 1, f"d=3 lemma solution_dim {report.solution_dim}")
        ops.append(op)
        op, report = _timed("lemma-d2n2", security.product_commutant_check, strat[2], 2)
        if report is not None:
            _expect(op, report.solution_dim == 1, f"d=2 n=2 lemma solution_dim {report.solution_dim}")
            dev = security.witness_identity_deviation(report)
            _expect(op, dev <= 1e-6, f"lemma witness off the identity by {dev:.3e}")
        ops.append(op)
        return ops


WORKLOADS = {w.name: w for w in (CliPipeline, ProtocolSim, ExactAnalysis)}
