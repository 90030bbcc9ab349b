"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured numbers when it completes. Tolerances are
pinned here and nowhere else."""

import time

import numpy as np
import pytest

from meanking import (
    attack as atk,
    bases,
    cli,
    protocol as proto,
    retrodiction as rd,
    security,
)
from meanking.serialize import file_digest

from oracles import decomposition_triple, intercept_resend_detection, phi_hat, probe_detection


def _report(tag, ok, detail):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_mub_validity():
    t0 = time.time()
    worst_overlap = 0.0
    for d in (2, 3, 5):
        bs = bases.gen_mub(d)
        _, worst = bases.check_unbiased(bs, 1e-10)
        worst_overlap = max(worst_overlap, worst)
        ok, rank = bases.check_nondegenerate(bs)
        assert ok and rank == d * d, (d, rank)
    elapsed = time.time() - t0
    _report(
        "criterion-1",
        worst_overlap <= 1e-10 and elapsed < 1.0,
        f"overlap deviation {worst_overlap:.2e} <= 1e-10, ranks d^2, {elapsed:.2f}s",
    )


def test_criterion_2_safe_vector_existence(mub2, mub3):
    t0 = time.time()
    worst_res = 0.0
    worst_delta = 0.0
    for bs in (mub2, mub3):
        d = bs.dim
        hats = {
            (b, i): phi_hat(bs, b, i) for b in range(bs.k) for i in range(d)
        }
        count = 0
        for x in rd.enumerate_guessing_functions(d, d + 1):
            sv = rd.solve_safe_vector(bs, x)
            worst_res = max(worst_res, sv.residual)
            for (b, i), hat in hats.items():
                want = 1.0 if x[b] == i else 0.0
                worst_delta = max(worst_delta, abs(np.vdot(sv.eta, hat) - want))
            count += 1
        assert count == d ** (d + 1)
    elapsed = time.time() - t0
    _report(
        "criterion-2",
        worst_res < 1e-8 and worst_delta < 1e-9 and elapsed < 5.0,
        f"8+81 solves, residual {worst_res:.2e} < 1e-8, "
        f"delta deviation {worst_delta:.2e} < 1e-9, {elapsed:.2f}s",
    )


@pytest.mark.parametrize("d", [2, 3])
def test_criterion_3_decomposition_identity(d, mub2, mub3):
    bs = mub2 if d == 2 else mub3
    rng = np.random.default_rng(1000 + d)
    cache = {}

    def eta(x):
        if x not in cache:
            cache[x] = rd.solve_safe_vector(bs, x).eta
        return cache[x]

    worst = 0.0
    for _ in range(100):
        x = tuple(int(v) for v in rng.integers(d, size=d + 1))
        bp, bt = (int(v) for v in rng.choice(d + 1, size=2, replace=False))
        jp = int((x[bp] + 1 + rng.integers(d - 1)) % d)
        jt = int((x[bt] + 1 + rng.integers(d - 1)) % d)
        u, v, w = decomposition_triple(x, bp, bt, jp, jt)
        worst = max(worst, np.linalg.norm(eta(x) - (eta(u) + eta(v) - eta(w))))
    _report(
        f"criterion-3-d{d}",
        worst < 1e-8,
        f"100 random triples, worst identity error {worst:.2e} < 1e-8",
    )


def test_criterion_4_maximal_strategy(strategy_d2, strategy_d3):
    min_weight = min(strategy_d2.weights.min(), strategy_d3.weights.min())
    residual = max(strategy_d2.completeness_residual, strategy_d3.completeness_residual)
    _report(
        "criterion-4",
        min_weight > 1e-6 and residual < 1e-8,
        f"min weight {min_weight:.2e} > 1e-6, completeness residual {residual:.2e} < 1e-8",
    )


def test_criterion_5_honest_protocol(strategy_d2, strategy_d3):
    t0 = time.time()
    rates = []
    failures = 0
    for s, seed in ((strategy_d2, 101), (strategy_d3, 202)):
        cfg = proto.ProtocolConfig(
            d=s.d, n=1, rounds=10_000, test_fraction=0.2, seed=seed
        )
        t = proto.run_protocol(cfg, s)
        rates.append(proto.agreement_rate(t))
        _, i, _, i_prime = t.columns()
        tested = list(t.test_indices)
        failures += int(np.count_nonzero(i[tested] != i_prime[tested]))
    elapsed = time.time() - t0
    _report(
        "criterion-5",
        rates == [1.0, 1.0] and failures == 0 and elapsed < 30.0,
        f"agreement {rates} (exact), {failures} test failures, {elapsed:.1f}s",
    )


def test_criterion_6_commutant_dimension(strategy_d2, strategy_d3):
    t0 = time.time()
    results = {}
    for label, report in (
        ("d2n1", security.eigenvector_constraint_dim(strategy_d2.safe_vectors)),
        ("d2n2", security.product_commutant_check(strategy_d2, 2)),
        ("d3n1", security.eigenvector_constraint_dim(strategy_d3.safe_vectors)),
    ):
        results[label] = (
            report.solution_dim,
            security.witness_identity_deviation(report),
        )
    elapsed = time.time() - t0
    ok = all(dim == 1 and dev < 1e-8 for dim, dev in results.values())
    _report(
        "criterion-6",
        ok and elapsed < 60.0,
        f"solution dims {[v[0] for v in results.values()]}, "
        f"worst witness deviation {max(v[1] for v in results.values()):.2e} < 1e-8, "
        f"{elapsed:.1f}s",
    )


def test_criterion_7_state_oracle_equivalence(mub2):
    rng = np.random.default_rng(4242)
    worst = 0.0
    trials = 0
    for d_eve in (1, 2, 4):
        for _ in range(17):
            am = atk.random_attack(2, 1, d_eve, int(rng.integers(1, 4)), rng)
            ops = atk.build_E_operators(am)
            for b in range(3):
                for i in range(2):
                    direct, _ = atk.alice_state_unnormalized(am, mub2, b, i)
                    recon = atk.reconstruct_alice_state(am, mub2, b, i, ops)
                    worst = max(worst, float(np.max(np.abs(direct - recon))))
            trials += 1
    _report(
        "criterion-7",
        trials >= 50 and worst < 1e-9,
        f"{trials} random attacks, direct vs operator-form deviation {worst:.2e} < 1e-9",
    )


def test_criterion_8_zero_detection_zero_leakage(strategy_d2, mub2):
    rng = np.random.default_rng(777)
    worst_det = 0.0
    worst_leak = 0.0
    built = 0
    for _ in range(12):
        d_eve = int(rng.integers(2, 5))
        am = atk.eve_local_attack(
            2,
            atk.random_channel(d_eve, int(rng.integers(1, 4)), rng),
            eve_state=atk.random_state(d_eve, rng),
        )
        worst_det = max(worst_det, atk.detection_probability(strategy_d2, am))
        worst_leak = max(worst_leak, atk.leakage(am, mub2))
        built += 1
    for _ in range(10):
        am = atk.scalarized_attack(atk.random_attack(2, 1, 2, 2, rng))
        worst_det = max(worst_det, atk.detection_probability(strategy_d2, am))
        worst_leak = max(worst_leak, atk.leakage(am, mub2))
        built += 1

    ir = atk.intercept_resend(mub2, 0)
    ir_det = atk.detection_probability(strategy_d2, ir)
    ir_gap = abs(ir_det - intercept_resend_detection(strategy_d2, 0))
    ir_leak = atk.leakage(ir, mub2)
    probe = atk.probe_entangle(2, 1.0)
    pr_det = atk.detection_probability(strategy_d2, probe)
    pr_gap = abs(pr_det - probe_detection(strategy_d2, 1.0))
    pr_leak = atk.leakage(probe, mub2)

    ok = (
        built >= 20
        and worst_det < 1e-10
        and worst_leak < 1e-8
        and min(ir_det, ir_leak, pr_det, pr_leak) > 0.01
        and max(ir_gap, pr_gap) < 1e-10
    )
    _report(
        "criterion-8",
        ok,
        f"{built} scalar-form attacks: detection {worst_det:.2e} < 1e-10, "
        f"leakage {worst_leak:.2e} < 1e-8; intercept-resend ({ir_det:.3f}, {ir_leak:.3f}) "
        f"and probe ({pr_det:.3f}, {pr_leak:.3f}) both detectable and leaky, "
        f"enumeration gaps {max(ir_gap, pr_gap):.2e} < 1e-10",
    )


def test_criterion_9_cli_determinism(tmp_path, capsys):
    def run(args):
        code = cli.main(args)
        return code, capsys.readouterr().out

    bases_path = tmp_path / "b.json"
    strategy_path = tmp_path / "s.json"
    assert run(["bases", "gen", "--dim", "2", "--out", str(bases_path)])[0] == 0
    assert run(
        ["strategy", "build", "--bases", str(bases_path), "--out", str(strategy_path)]
    )[0] == 0

    mismatches = []
    commands = {
        "bases-gen": ["bases", "gen", "--dim", "3", "--out", None],
        "strategy-build": ["strategy", "build", "--bases", str(bases_path), "--out", None],
        "run": [
            "run", "--strategy", str(strategy_path), "--rounds", "300",
            "--seed", "31337", "--attack", "probe:theta=0.7", "--test-fraction", "0.0",
            "--out", None,
        ],
        "lemma": ["security", "lemma", "--dim", "2", "--n", "2", "--out", None],
        "attack-eval": [
            "security", "attack-eval", "--attack", "intercept-resend:b=2",
            "--dim", "2", "--out", None,
        ],
    }
    for name, template in commands.items():
        digests = []
        outs = []
        for attempt in ("x", "y"):
            path = tmp_path / f"{name}-{attempt}.out"
            argv = [str(path) if a is None else a for a in template]
            code, out = run(argv)
            assert code == 0, (name, code)
            digests.append(file_digest(path))
            outs.append(out.replace(f"{name}-{attempt}.out", "OUT"))
        if digests[0] != digests[1] or outs[0] != outs[1]:
            mismatches.append(name)
    _report(
        "criterion-9",
        not mismatches,
        f"5 command kinds rerun with fixed seeds: byte-identical files and stdout "
        f"(mismatches: {mismatches or 'none'})",
    )
