import collections
import hashlib
import itertools
import json

import numpy as np
import pytest
import scipy.stats

from meanking import attack as atk, protocol as proto, retrodiction as retro
from meanking.serialize import canonical_dumps


def cfg(d=2, n=1, rounds=1000, test_fraction=0.1, seed=12345):
    return proto.ProtocolConfig(d=d, n=n, rounds=rounds, test_fraction=test_fraction, seed=seed)


def file_hash(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


class TestHonestRuns:
    def test_perfect_agreement_d2(self, strategy_d2):
        t = proto.run_protocol(cfg(rounds=2000), strategy_d2)
        assert proto.agreement_rate(t) == 1.0
        assert t.accepted

    def test_perfect_agreement_d3(self, strategy_d3):
        t = proto.run_protocol(cfg(d=3, rounds=1000, seed=77), strategy_d3)
        assert proto.agreement_rate(t) == 1.0
        assert t.accepted

    def test_bob_outcomes_uniform(self, strategy_d2):
        t = proto.run_protocol(cfg(rounds=6000, seed=3), strategy_d2)
        per_basis = collections.Counter(r.b for r in t.records)
        joint = collections.Counter((r.b, r.i) for r in t.records)
        for b in (1, 2, 3):
            n_b = per_basis[b]
            bound = 4 * np.sqrt(0.5 * 0.5 / n_b)
            for i in (1, 2):
                assert abs(joint[(b, i)] / n_b - 0.5) <= bound

    def test_record_labels_one_based(self, strategy_d2):
        t = proto.run_protocol(cfg(rounds=50), strategy_d2)
        for r in t.records:
            assert 1 <= r.b <= 3 and 1 <= r.i <= 2 and 1 <= r.i_prime <= 2
            assert len(r.x) == 3 and all(1 <= v <= 2 for v in r.x)
            assert r.i_prime == r.x[r.b - 1]

    def test_blocks_flatten(self, strategy_d2):
        t = proto.run_protocol(cfg(n=3, rounds=40), strategy_d2)
        assert len(t.records) == 120
        assert proto.agreement_rate(t) == 1.0

    def test_no_signaling_chi2(self, strategy_d2):
        # Alice's guessing-function marginal must not depend on Bob's basis
        t = proto.run_protocol(cfg(rounds=100_000, test_fraction=0.0, seed=9), strategy_d2)
        xs = sorted(set(r.x for r in t.records))
        table = np.zeros((3, len(xs)))
        pos = {x: j for j, x in enumerate(xs)}
        for r in t.records:
            table[r.b - 1, pos[r.x]] += 1
        _, pvalue, _, _ = scipy.stats.chi2_contingency(table)
        assert pvalue > 1e-3


class TestDeterminism:
    def test_identical_reruns(self, strategy_d2, tmp_path):
        c = cfg(rounds=500, seed=2024)
        t1 = proto.run_protocol(c, strategy_d2)
        t2 = proto.run_protocol(c, strategy_d2)
        p1, p2 = tmp_path / "t1.jsonl", tmp_path / "t2.jsonl"
        proto.save_transcript(t1, p1)
        proto.save_transcript(t2, p2)
        assert file_hash(p1) == file_hash(p2)

    def test_seed_changes_transcript(self, strategy_d2):
        t1 = proto.run_protocol(cfg(rounds=300, seed=1), strategy_d2)
        t2 = proto.run_protocol(cfg(rounds=300, seed=2), strategy_d2)
        assert [r.b for r in t1.records] != [r.b for r in t2.records]

    def test_attacked_run_deterministic(self, strategy_d2, mub2):
        am = atk.intercept_resend(mub2, 0)
        c = cfg(rounds=200, seed=6)
        t1 = proto.run_protocol(c, strategy_d2, am)
        t2 = proto.run_protocol(c, strategy_d2, am)
        assert t1.records == t2.records


class TestAttackedRuns:
    def test_intercept_resend_rate_matches_enumeration(self, strategy_d2, mub2):
        am = atk.intercept_resend(mub2, 0)
        det = atk.detection_probability(strategy_d2, am)
        rounds = 10_000
        t = proto.run_protocol(cfg(rounds=rounds, test_fraction=0.0, seed=55), strategy_d2, am)
        emp = 1.0 - proto.agreement_rate(t)
        sigma = np.sqrt(det * (1 - det) / rounds)
        assert abs(emp - det) <= 4 * sigma

    def test_probe_disturbs(self, strategy_d2):
        am = atk.probe_entangle(2, 1.0)
        t = proto.run_protocol(cfg(rounds=3000, test_fraction=0.0, seed=66), strategy_d2, am)
        assert proto.agreement_rate(t) < 1.0

    def test_block_attack_n2(self, strategy_d2):
        am = atk.probe_entangle(2, 0.8, n=2)
        t = proto.run_protocol(cfg(n=2, rounds=800, test_fraction=0.0, seed=13), strategy_d2, am)
        assert len(t.records) == 1600
        assert 0.5 < proto.agreement_rate(t) < 1.0

    def test_dimension_mismatch(self, strategy_d2, mub2):
        am = atk.intercept_resend(mub2, 0)
        with pytest.raises(ValueError):
            proto.run_protocol(cfg(d=3), strategy_d2)
        with pytest.raises(ValueError):
            proto.run_protocol(cfg(n=2), strategy_d2, am)


class TestSiftAndTest:
    def test_attack_free_accepts_with_equal_keys(self, strategy_d2):
        t = proto.run_protocol(cfg(rounds=400, test_fraction=0.25, seed=8), strategy_d2)
        accepted, keys = proto.sift_and_test(t)
        assert accepted
        assert keys.alice_key == keys.bob_key
        assert len(keys.alice_key) == 400 - len(t.test_indices)

    def test_single_disagreement_full_testing(self, strategy_d2):
        t = proto.run_protocol(cfg(rounds=50, test_fraction=1.0, seed=4), strategy_d2)
        rec = t.records[17]
        t.records[17] = proto.RoundRecord(
            b=rec.b, i=rec.i, x=rec.x, i_prime=1 + (rec.i % 2)
        )
        accepted, _ = proto.sift_and_test(t)
        assert not accepted

    def test_zero_fraction_tests_nothing(self, strategy_d2, mub2):
        am = atk.intercept_resend(mub2, 0)
        t = proto.run_protocol(cfg(rounds=300, test_fraction=0.0, seed=10), strategy_d2, am)
        assert t.accepted and t.test_indices == ()

    def test_acceptance_probability_closed_form(self, strategy_d2, mub2):
        # a transcript with i.i.d. disagreement rate q passes m tests
        # with probability (1 - q)^m
        am = atk.intercept_resend(mub2, 0)
        q = atk.detection_probability(strategy_d2, am)
        rounds, fraction, trials = 20, 0.5, 400
        m = 10
        accepted = 0
        for trial in range(trials):
            t = proto.run_protocol(
                cfg(rounds=rounds, test_fraction=fraction, seed=9000 + trial),
                strategy_d2,
                am,
            )
            assert len(t.test_indices) == m
            accepted += t.accepted
        want = (1 - q) ** m
        sigma = np.sqrt(want * (1 - want) / trials)
        assert abs(accepted / trials - want) <= 4 * sigma


class TestSummaries:
    def test_agreement_rate_all_wrong(self, strategy_d2):
        t = proto.run_protocol(cfg(rounds=30), strategy_d2)
        bad = [
            proto.RoundRecord(b=r.b, i=r.i, x=r.x, i_prime=1 + (r.i % 2))
            for r in t.records
        ]
        assert proto.agreement_rate(proto.Transcript(config=t.config, records=bad)) == 0.0

    def test_transcript_roundtrip(self, strategy_d2, tmp_path):
        t = proto.run_protocol(cfg(rounds=120, seed=21), strategy_d2)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        proto.save_transcript(t, p1)
        back = proto.load_transcript(p1)
        assert back.config == t.config
        assert back.records == t.records
        assert back.test_indices == t.test_indices
        assert back.accepted == t.accepted
        proto.save_transcript(back, p2)
        assert file_hash(p1) == file_hash(p2)

    def test_broken_attack_flagged(self, strategy_d2, mub2):
        am = atk.intercept_resend(mub2, 0)
        am.kraus = tuple(0.7 * v for v in am.kraus)  # silently break completeness
        with pytest.raises(proto.ProtocolError):
            proto.run_protocol(cfg(rounds=5), strategy_d2, am)


def exact_block_table(strategy, am):
    """p(b) p(i|b) p(x|b,i) per 0-based block (bvec, ivec, xs), from alice_state."""
    bs = strategy.basis_set
    n = am.n
    ps = retro.tensor_strategy(strategy, n)
    tuples = list(ps.guessing_tuples())
    etas = np.asarray([ps.safe_vector_grouped(xs) for xs in tuples])
    weights = np.asarray([ps.weight(xs) for xs in tuples])
    table = {}
    for bvec in itertools.product(range(bs.k), repeat=n):
        for ivec in itertools.product(range(bs.dim), repeat=n):
            _, p_i = atk.bob_projected_state(am, bs, bvec, ivec)
            rho = atk.alice_state(am, bs, bvec, ivec)
            p_x = weights * np.einsum("xi,ij,xj->x", etas.conj(), rho, etas).real
            for xs, p in zip(tuples, p_x):
                table[(bvec, ivec, xs)] = p_i * p / bs.k**n
    return table


def block_counts(records, n):
    counts = collections.Counter()
    for start in range(0, len(records), n):
        block = records[start:start + n]
        counts[(
            tuple(r.b - 1 for r in block),
            tuple(r.i - 1 for r in block),
            tuple(tuple(v - 1 for v in r.x) for r in block),
        )] += 1
    return counts


class TestSampler:
    @pytest.mark.parametrize("case", ["honest-d2", "honest-d3", "intercept-d2n2"])
    def test_frequencies_match_exact_tables(self, case, strategy_d2, strategy_d3, mub2):
        strategy, am, c = {
            "honest-d2": (strategy_d2, None, cfg(rounds=20_000, seed=31)),
            "honest-d3": (strategy_d3, None, cfg(d=3, rounds=60_000, seed=32)),
            "intercept-d2n2": (strategy_d2, atk.intercept_resend(mub2, 0, n=2),
                               cfg(n=2, rounds=50_000, seed=33)),
        }[case]
        t = proto.run_protocol(c, strategy, am)
        exact = exact_block_table(strategy, am or atk.identity_attack(c.d, 1))
        counts = block_counts(t.records, c.n if am else 1)
        blocks = sum(counts.values())
        assert set(counts) <= {key for key, p in exact.items() if p > 1e-12}
        expected = np.array([p * blocks for p in exact.values() if p > 1e-12])
        observed = np.array([counts[key] for key, p in exact.items() if p > 1e-12])
        small = expected < 5  # pool sparse cells so the chi-square law holds
        if small.any():
            expected = np.append(expected[~small], expected[small].sum())
            observed = np.append(observed[~small], observed[small].sum())
        expected *= observed.sum() / expected.sum()
        _, pvalue = scipy.stats.chisquare(observed, expected)
        assert pvalue > 1e-3

    @pytest.mark.parametrize("attacked", [False, True])
    def test_first_chunk_independent_of_run_length(self, attacked, strategy_d2, mub2):
        n, am = (2, atk.intercept_resend(mub2, 0, n=2)) if attacked else (1, None)
        short = proto.run_protocol(cfg(n=n, rounds=proto.CHUNK, seed=40), strategy_d2, am)
        long = proto.run_protocol(cfg(n=n, rounds=2 * proto.CHUNK, seed=40), strategy_d2, am)
        assert long.records[: len(short.records)] == short.records
        assert long.records[len(short.records):] != short.records


def reference_save(transcript, path):
    lines = [canonical_dumps({
        "format": "meanking-transcript-v1",
        "config": transcript.config.to_dict(),
        "test_indices": list(transcript.test_indices),
        "accepted": transcript.accepted,
    })]
    for rec in transcript.records:
        lines.append(canonical_dumps({
            "b": rec.b - 1, "i": rec.i - 1, "x": [v - 1 for v in rec.x], "i_prime": rec.i_prime - 1,
        }))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))


MALFORMED = {
    "format": (lambda h, r: h.update(format="meanking-transcript-v0"), "format"),
    "record count": (lambda h, r: r.pop(), "expected rounds\\*n"),
    "x length": (lambda h, r: r[0]["x"].append(r[0]["x"][0]), "number of bases"),
    "x entry": (lambda h, r: r[0]["x"].__setitem__((r[0]["b"] + 1) % 3, 2), "0..1"),
    "b range": (lambda h, r: r[0].update(b=3), "basis must lie in 0..2"),
    "i_prime": (lambda h, r: r[3].update(i_prime=1 - r[3]["x"][r[3]["b"]]), "differs from x\\[b\\]"),
    "test order": (lambda h, r: h["test_indices"].reverse(), "strictly increasing"),
    "test range": (lambda h, r: h["test_indices"].__setitem__(-1, 20), "0..19"),
}


class TestTranscriptFiles:
    def test_save_matches_reference_writer(self, strategy_d2, tmp_path):
        t = proto.run_protocol(cfg(rounds=300, seed=50), strategy_d2)
        rec = t.records[7]
        t.records[7] = proto.RoundRecord(b=rec.b, i=rec.i, x=rec.x, i_prime=1 + (rec.i % 2))
        fast, ref = tmp_path / "fast.jsonl", tmp_path / "ref.jsonl"
        proto.save_transcript(t, fast)
        reference_save(t, ref)
        assert fast.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_load_rejected(self, case, strategy_d2, tmp_path):
        t = proto.run_protocol(cfg(rounds=20, test_fraction=0.25, seed=51), strategy_d2)
        path = tmp_path / "t.jsonl"
        proto.save_transcript(t, path)
        lines = path.read_text().splitlines()
        header, records = json.loads(lines[0]), [json.loads(line) for line in lines[1:]]
        mutate, message = MALFORMED[case]
        mutate(header, records)
        path.write_text("".join(canonical_dumps(obj) + "\n" for obj in [header, *records]))
        with pytest.raises(ValueError, match=message):
            proto.load_transcript(path)
