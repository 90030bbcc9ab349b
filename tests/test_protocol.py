import collections
import contextlib
import hashlib
import io
import itertools
import json

import numpy as np
import pytest
import scipy.stats

from meanking import attack as atk, bases, cli, protocol as proto
from meanking.serialize import canonical_dumps, file_digest
from oracles import outcome_dist, povm_dist, product_tables, sample_per_tuple, tuple_digits


def cfg(d=2, n=1, rounds=1000, test_fraction=0.1, seed=12345):
    return proto.ProtocolConfig(d=d, n=n, rounds=rounds, test_fraction=test_fraction, seed=seed)


def disagree(t, pos):
    """Re-code instance(s) ``pos`` of ``t`` with Bob's outcome i set to i' + 1 mod d."""
    b, i, x, i_prime = (col[pos] for col in t.columns())
    d = t.config.d
    t.codes[pos] = (b * d + (i_prime + 1) % d) * d**t.k + x


class TestConfig:
    @pytest.mark.parametrize("field, value, message", [
        ("d", 1, "d must be an integer >= 2, not 1"),
        ("d", True, "d must be an integer >= 2, not True"),
        ("d", np.int64(2), "d must be an integer >= 2"),
        ("n", 0, "n must be an integer >= 1, not 0"),
        ("rounds", 0, "rounds must be an integer >= 1, not 0"),
        ("rounds", 10.0, "rounds must be an integer >= 1, not 10.0"),
        ("seed", -1, "seed must be an integer >= 0, not -1"),
        ("seed", "1", "seed must be an integer >= 0, not '1'"),
        ("test_fraction", "0.25", "test_fraction must be a number in \\[0, 1\\], not '0.25'"),
        ("test_fraction", float("nan"), "test_fraction must be a number in \\[0, 1\\], not nan"),
        ("test_fraction", 1.5, "test_fraction must be a number"),
        ("test_fraction", False, "test_fraction must be a number"),
    ], ids=["d-1", "d-bool", "d-numpy", "n-0", "rounds-0", "rounds-float", "seed-negative",
            "seed-string", "fraction-string", "fraction-nan", "fraction-above-1", "fraction-bool"])
    def test_refused_at_construction(self, field, value, message):
        fields = dict(d=2, n=1, rounds=10, test_fraction=0.25, seed=1)
        with pytest.raises(ValueError, match=message):
            proto.ProtocolConfig(**{**fields, field: value})

    def test_integral_fraction_accepted(self):
        assert proto.ProtocolConfig(d=2, n=1, rounds=10, test_fraction=1, seed=0).test_fraction == 1


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
        assert file_digest(p1) == file_digest(p2)

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

    def test_sampler_over_budget(self, strategy_d3, mub3, monkeypatch):
        # 27 outcomes x 27 Kraus branches x 81**3 guessing tuples: 3.9e8 amplitudes
        def refuse(*_args):
            raise AssertionError("Born rows built despite the budget")

        monkeypatch.setattr(proto, "_born_rows", refuse)
        am = atk.intercept_resend(mub3, 0, n=3)
        with pytest.raises(bases.OverBudget, match="387420489 amplitudes"):
            proto.run_protocol(cfg(d=3, n=3, rounds=1), strategy_d3, am)

    @pytest.mark.parametrize("n", [1, 2])
    def test_instances_over_budget(self, strategy_d2, mub2, monkeypatch, n):
        def refuse(*_args):
            raise AssertionError("sampled despite the instance budget")

        monkeypatch.setattr(proto, "_sample", refuse)
        rounds = bases.MAX_ARRAY_ENTRIES // n + 1
        for am in (None, atk.intercept_resend(mub2, 0, n=n)):
            with pytest.raises(bases.OverBudget, match=f"budget {bases.MAX_ARRAY_ENTRIES} inst"):
                proto.run_protocol(cfg(n=n, rounds=rounds), strategy_d2, am)


class TestSiftAndTest:
    def test_attack_free_accepts_with_equal_keys(self, strategy_d2):
        t = proto.run_protocol(cfg(rounds=400, test_fraction=0.25, seed=8), strategy_d2)
        accepted, keys = proto.sift_and_test(t)
        assert accepted
        assert keys.alice_key == keys.bob_key
        assert len(keys.alice_key) == 400 - len(t.test_indices)

    def test_single_disagreement_full_testing(self, strategy_d2):
        t = proto.run_protocol(cfg(rounds=50, test_fraction=1.0, seed=4), strategy_d2)
        disagree(t, 17)
        assert t.records[17].i != t.records[17].i_prime
        accepted, _ = proto.sift_and_test(t)
        assert not accepted

    def test_zero_fraction_tests_nothing(self, strategy_d2, mub2):
        am = atk.intercept_resend(mub2, 0)
        t = proto.run_protocol(cfg(rounds=300, test_fraction=0.0, seed=10), strategy_d2, am)
        assert t.accepted and t.test_indices == ()

    def test_leaves_a_built_transcript_as_it_was(self):
        codes = np.random.default_rng(14).integers(2 * 2 * 2**3, size=200)
        t = proto.Transcript(config=cfg(rounds=200, test_fraction=0.25, seed=14), k=3, codes=codes)
        before = (t.test_indices, t.accepted)
        assert len(before[0]) == 50
        proto.sift_and_test(t)
        assert (t.test_indices, t.accepted) == before

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
        disagree(t, slice(None))
        assert all(r.i != r.i_prime for r in t.records)
        assert proto.agreement_rate(t) == 0.0

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
        assert file_digest(p1) == file_digest(p2)

    def test_nan_distribution_flagged(self):
        # NaN fails every comparison, so a check of the form value > tol would pass it
        with pytest.raises(proto.ProtocolError):
            proto._normalized(np.array([0.5, np.nan, 0.5]), "Bob outcomes")

    def test_broken_attack_flagged(self, strategy_d2, mub2):
        am = atk.intercept_resend(mub2, 0)
        am.kraus = 0.7 * am.kraus  # silently break completeness
        with pytest.raises(proto.ProtocolError):
            proto.run_protocol(cfg(rounds=5), strategy_d2, am)


def exact_block_table(strategy, am, announced=False):
    """p(b) p(i|b) p(x|b,i) per 0-based block (bvec, ivec, xs), from alice_state.

    With ``announced`` the tuples are merged by the digits x_s(b_s) Alice
    announces, which then take the place of xs in the key.
    """
    bs = strategy.basis_set
    n = am.n
    etas, _, weights = product_tables(strategy, n)
    digits = tuple_digits(strategy, n)  # (tuple, instance, basis)
    tuples = [tuple(map(tuple, xs)) for xs in digits.tolist()]
    table = {}
    for bvec in itertools.product(range(bs.k), repeat=n):
        said = np.ravel_multi_index(digits[:, np.arange(n), list(bvec)].T, (bs.dim,) * n)
        for ivec in itertools.product(range(bs.dim), repeat=n):
            p_i = atk._projected_raw(am, bs, bvec, ivec)[1]
            rho = atk.alice_state(am, bs, bvec, ivec)
            p_x = weights * np.einsum("xi,ij,xj->x", etas.conj(), rho, etas, optimize=True).real
            if announced:
                p_said = np.bincount(said, weights=p_x, minlength=bs.dim**n)
                keys = itertools.product(range(bs.dim), repeat=n)
                table.update(((bvec, ivec, a), p_i * p / bs.k**n) for a, p in zip(keys, p_said))
            else:
                for xs, p in zip(tuples, p_x):
                    table[(bvec, ivec, xs)] = p_i * p / bs.k**n
    return table


def block_counts(records, n, announced=False):
    counts = collections.Counter()
    for start in range(0, len(records), n):
        block = records[start:start + n]
        last = (tuple(r.i_prime - 1 for r in block) if announced
                else tuple(tuple(v - 1 for v in r.x) for r in block))
        counts[(tuple(r.b - 1 for r in block), tuple(r.i - 1 for r in block), last)] += 1
    return counts


class TestSampler:
    @pytest.mark.parametrize("case", ["honest-d2", "honest-d3", "intercept-d2n2", "intercept-d3n2"])
    def test_frequencies_match_exact_tables(self, case, strategy_d2, strategy_d3, mub2, mub3):
        # at d=3, n=2 the 6561 guessing tuples per (b, i) leave every full
        # cell sparse, so that case is checked on the announced digits x(b)
        announced = case == "intercept-d3n2"
        strategy, am, c = {
            "honest-d2": (strategy_d2, None, cfg(rounds=20_000, seed=31)),
            "honest-d3": (strategy_d3, None, cfg(d=3, rounds=60_000, seed=32)),
            "intercept-d2n2": (strategy_d2, atk.intercept_resend(mub2, 0, n=2),
                               cfg(n=2, rounds=50_000, seed=33)),
            "intercept-d3n2": (strategy_d3, atk.intercept_resend(mub3, 1, n=2),
                               cfg(d=3, n=2, rounds=50_000, seed=34)),
        }[case]
        t = proto.run_protocol(c, strategy, am)
        exact = exact_block_table(strategy, am or atk.identity_attack(c.d, 1), announced)
        counts = block_counts(t.records, c.n if am else 1, announced)
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


ORACLE_SHAPES = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]


def oracle_attack(kind, strategy, n):
    d = strategy.d
    if kind == "honest":
        return atk.identity_attack(d, n)
    if kind == "intercept":
        return atk.intercept_resend(strategy.basis_set, 1, n=n)
    return atk.random_attack(d, n, 2, 2, np.random.default_rng(100 * d + n))


class TestSamplerAgainstPerTupleOracle:
    """The block-walk sampler against the per-outcome, per-tuple route it replaced."""

    @pytest.mark.parametrize("kind", ["honest", "intercept", "random"])
    @pytest.mark.parametrize("d,n", ORACLE_SHAPES)
    def test_codes_and_born_rows_match(self, kind, d, n, strategy_d2, strategy_d3):
        strategy = {2: strategy_d2, 3: strategy_d3}[d]
        am = oracle_attack(kind, strategy, n)
        bs = strategy.basis_set
        tables = product_tables(strategy, n)
        units = 200 if d**n > 4 else 1000
        codes = proto._sample(17 + n, strategy, am, units)
        np.testing.assert_array_equal(codes, sample_per_tuple(17 + n, strategy, am, units, tables))
        # at d=3, n=2 every outcome costs a full 6561-row table: check two blocks
        blocks = ((tuple(bvec), *block) for bvecs, *chunk in atk._walk(am, bs)
                  for bvec, *block in zip(bvecs.tolist(), *chunk))
        for bvec, branches, probs in itertools.islice(blocks, 2 if d**n > 8 else None):
            np.testing.assert_allclose(probs, outcome_dist(am, bs, bvec), atol=1e-12)
            rows = proto._born_rows(branches, strategy.etas.conj(), strategy.weights, n)
            for ivec, row, prob in zip(itertools.product(range(d), repeat=n), rows, probs):
                np.testing.assert_allclose(row / prob, povm_dist(am, bs, tables, bvec, ivec),
                                           rtol=0, atol=1e-12)


def reference_save(transcript, path):
    """The transcript file, one ``canonical_dumps`` per instance, decoding codes with int divmod."""
    d, k = transcript.config.d, transcript.k
    lines = [canonical_dumps({
        "format": "meanking-transcript-v1",
        "config": transcript.config.to_dict(),
        "test_indices": list(transcript.test_indices),
        "accepted": transcript.accepted,
    })]
    for code in transcript.codes.tolist():
        bi, xi = divmod(code, d**k)
        b, i = divmod(bi, d)
        x = [xi // d ** (k - 1 - j) % d for j in range(k)]
        lines.append(canonical_dumps({"b": b, "i": i, "x": x, "i_prime": x[b]}))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))


MALFORMED = {
    "format": (lambda h, r: h.update(format="meanking-transcript-v0"), "format"),
    "record count": (lambda h, r: r.pop(), "expected rounds\\*n"),
    "x length": (lambda h, r: r[0]["x"].append(r[0]["x"][0]), "number of bases"),
    "x entry": (lambda h, r: r[0]["x"].__setitem__((r[0]["b"] + 1) % 3, 2), "0..1"),
    "b range": (lambda h, r: r[0].update(b=3), "basis must lie in 0..2"),
    "i range": (lambda h, r: r[0].update(i=2), "outcomes must lie in 0..1"),
    "i_prime": (lambda h, r: r[3].update(i_prime=1 - r[3]["x"][r[3]["b"]]), "differs from x\\[b\\]"),
    "test order": (lambda h, r: h["test_indices"].reverse(), "test_indices differ"),
    "test range": (lambda h, r: h["test_indices"].__setitem__(-1, 20), "test_indices differ"),
    "test moved": (lambda h, r: h.update(test_indices=[
        p for p in range(20) if p not in h["test_indices"]][:5]), "test_indices differ"),
    "accepted flipped": (lambda h, r: h.update(accepted=not h["accepted"]),
                         "accepted is false, but the tested records say true"),
    "d string": (lambda h, r: h["config"].update(d="2"), "d must be an integer"),
    "d null": (lambda h, r: h["config"].update(d=None), "d must be an integer"),
    "d one": (lambda h, r: h["config"].update(d=1), "d must be an integer >= 2"),
    "n string": (lambda h, r: h["config"].update(n="1"), "n must be an integer"),
    "n float": (lambda h, r: h["config"].update(n=1.0), "n must be an integer"),
    "rounds bool": (lambda h, r: h["config"].update(rounds=True), "rounds must be an integer"),
    "seed float": (lambda h, r: h["config"].update(seed=51.0), "seed must be an integer"),
    "seed negative": (lambda h, r: h["config"].update(seed=-1), "seed must be an integer >= 0"),
    "test_fraction string": (lambda h, r: h["config"].update(test_fraction="0.25"),
                             "test_fraction must be a number"),
    "config key": (lambda h, r: h["config"].pop("seed"), "config must have the keys"),
    "accepted string": (lambda h, r: h.update(accepted="no"), "accepted must be true or false"),
    "test bool": (lambda h, r: h["test_indices"].__setitem__(0, True), "list of integers"),
}


class TestTranscriptFiles:
    def test_save_matches_reference_writer(self, strategy_d2, tmp_path):
        t = proto.run_protocol(cfg(rounds=300, seed=50), strategy_d2)
        disagree(t, 7)
        fast, ref = tmp_path / "fast.jsonl", tmp_path / "ref.jsonl"
        proto.save_transcript(t, fast)
        reference_save(t, ref)
        assert fast.read_bytes() == ref.read_bytes()
        tampered = json.loads(fast.read_text().splitlines()[8])
        assert tampered["i"] != tampered["i_prime"]
        np.testing.assert_array_equal(proto.load_transcript(fast).codes, t.codes)

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


def general_load(path, monkeypatch):
    """``load_transcript`` through the general route only, or the ``ValueError`` it raises."""
    with monkeypatch.context() as patch:
        patch.setattr(proto, "_fixed_width_codes", lambda fh, d: None)
        try:
            return proto.load_transcript(path)
        except ValueError as exc:
            return exc


def same_load(fast, general):
    """True iff both loads raised the same message or read the same transcript."""
    if isinstance(fast, ValueError) or isinstance(general, ValueError):
        return type(fast) is type(general) and str(fast) == str(general)
    return (np.array_equal(fast.codes, general.codes) and fast.k == general.k
            and (fast.config, fast.test_indices, fast.accepted)
            == (general.config, general.test_indices, general.accepted))


def fixed_width_codes(path, d):
    """What the fixed-width route reads from the body of the file at ``path``."""
    with open(path, "rb") as fh:
        fh.readline()
        return proto._fixed_width_codes(fh, d)


class TestFixedWidthRoute:
    """The fixed-width loader and writer against the general line-by-line route."""

    @pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_codes_match_general_route(self, d, n, strategy_d2, strategy_d3, tmp_path):
        strategy = {2: strategy_d2, 3: strategy_d3}[d]
        t = proto.run_protocol(cfg(d=d, n=n, rounds=3000, seed=60 + d + n), strategy)
        disagree(t, 5)
        path = tmp_path / "t.jsonl"
        proto.save_transcript(t, path)
        k, codes = fixed_width_codes(path, d)
        lines = path.read_text().splitlines(keepends=True)[1:]
        assert (k, len(lines)) == (t.k, len(t.codes))
        general_k, general_codes = proto._record_codes(lines, d)
        assert general_k == k
        np.testing.assert_array_equal(codes, general_codes)
        np.testing.assert_array_equal(codes, t.codes)

    @pytest.mark.parametrize("mutation", ["two-digit i", "two-digit b", "crlf", "space",
                                          "blank line", "no final newline"])
    def test_last_chunk_mutation_loads_as_general_route(self, mutation, strategy_d2, tmp_path,
                                                        monkeypatch):
        t = proto.run_protocol(cfg(rounds=2 * proto.CHUNK + 300, seed=61), strategy_d2)
        path = tmp_path / "t.jsonl"
        proto.save_transcript(t, path)
        assert fixed_width_codes(path, 2) is not None
        header, *lines = path.read_bytes().splitlines(keepends=True)
        at = 2 * proto.CHUNK + 100  # a line of the third and last chunk
        if mutation == "no final newline":
            lines[-1] = lines[-1].rstrip(b"\n")
        else:
            lines[at] = {
                "two-digit i": lines[at].replace(b'"i":', b'"i":1'),
                "two-digit b": lines[at].replace(b'"b":', b'"b":1'),
                "crlf": lines[at].replace(b"\n", b"\r\n"),
                "space": lines[at].replace(b'"b":', b'"b": '),
                "blank line": lines[at] + b"\n",
            }[mutation]
        path.write_bytes(header + b"".join(lines))
        assert fixed_width_codes(path, 2) is None
        try:
            fast = proto.load_transcript(path)
        except ValueError as exc:
            fast = exc
        general = general_load(path, monkeypatch)
        assert same_load(fast, general)
        if mutation in ("crlf", "space", "blank line", "no final newline"):
            np.testing.assert_array_equal(fast.codes, t.codes)
        else:
            assert isinstance(fast, ValueError)

    def test_non_digit_byte_refused(self, tmp_path):
        # at d=12 a one-digit file fits the template, and ':' is the byte after '9':
        # read as a digit it would be x = 10 < d
        d, k, count = 12, 2, 50
        rng = np.random.default_rng(63)
        x = rng.integers(10, size=(count, k))
        codes = rng.integers(10, size=count) * d**k + x @ [d, 1]  # b = 0
        t = proto.Transcript(config=cfg(d=d, rounds=count), k=k, codes=codes)
        path = tmp_path / "t.jsonl"
        proto.save_transcript(t, path)
        assert fixed_width_codes(path, d) is not None
        header, *lines = path.read_bytes().splitlines(keepends=True)
        lines[20] = lines[20][:-4] + b":]}\n"  # x[1], which i' does not read
        path.write_bytes(header + b"".join(lines))
        with pytest.raises(ValueError, match="malformed transcript record"):
            proto.load_transcript(path)

    @pytest.mark.parametrize("bases_seen", ["mixed", "two-digit"])
    def test_two_digit_basis_saves_like_reference(self, bases_seen, tmp_path, monkeypatch):
        # d=2, k=11: b reaches 10, so lines differ in width or all miss the one-digit template
        d, k, count = 2, 11, 700
        rng = np.random.default_rng(62)
        b = rng.integers(11, size=count) if bases_seen == "mixed" else np.full(count, 10)
        codes = (b * d + rng.integers(d, size=count)) * d**k + rng.integers(d**k, size=count)
        t = proto.Transcript(config=cfg(rounds=count, seed=62), k=k, codes=codes)
        fast, ref = tmp_path / "fast.jsonl", tmp_path / "ref.jsonl"
        proto.save_transcript(t, fast)
        reference_save(t, ref)
        assert fast.read_bytes() == ref.read_bytes()
        assert fixed_width_codes(fast, d) is None
        back = proto.load_transcript(fast)
        np.testing.assert_array_equal(back.codes, codes)
        assert len(t.test_indices) == 70
        assert (back.k, back.test_indices, back.accepted) == (k, t.test_indices, t.accepted)
        assert same_load(back, general_load(fast, monkeypatch))


# SHA-256 digests of what 0.8.0 writes: transcripts of the protocol-sim
# benchmark's four shapes at reduced rounds, and the README pipeline's
# outputs (the `run` steps at reduced rounds). The sampler draws from numpy Generator streams,
# which numpy does not promise to keep across versions, so the CI workflow
# pins numpy. A release that changes the streams changes these on purpose.
GOLDEN_TRANSCRIPTS = {
    "honest-d3n1": "009a94286ccb9d2cf2ba1a58b9e1db1f9009fd2cb5c7b792c9a76629ca5af9e2",
    "honest-d2n2": "060b5fcc9afc6a5fbc19c0ca4f147d781309bd8394fea74e804c135af547ed65",
    "intercept-d2n2": "4115ebafa59be81e3337c785369168e1d0c4603d2ad899539da8c3466360a272",
    "probe-d3n1": "a84f3ffe69f1dfc8ad8c195b58c7a19e9eab736be9127e4f3cbc32fe623cd265",
}
GOLDEN_README_RUN = {
    "bases gen stdout": "ed99aad73837c670ee68fd2de4a56b5e792695fa0f93aaf71bb428f269ad75e9",
    "bases3.json": "b8814958647460da10423529abcc86fa6a3447a601d12f584871f4f9e765f730",
    "bases check stdout": "91fe6f30ea1cc887d5ae3ed1983333bbf45c0c35eb1a1617afbc7b940602feee",
    "strategy build stdout": "b7b957f7850273276cc1336d286f439a774ee1ef7de216176cd0c86145ecd947",
    "strategy3.json": "8ed9e1d352b58f70f6de45d96f6ee33630dcac01ce95978a335205c6f738894c",
    "run stdout": "b0ee935fb7a548f89d1ea68ef110dc0423bd77d2b7bf660c9cba9698ec707e91",
    "transcript.jsonl": "e85ee09b7557d05c52889d994b65d1f2ccf1ba3cc17b568b4e85bd92e435222b",
    "summary.json": "acb81d80872736ba27245b29413f4493e01dc02e98be2c1944c90b73fca12193",
    "attacked run stdout": "cec461e9ec73cebe69d13372132ed3debe776347709d1b481f3fcac28f6ca1da",
    "t.jsonl": "3bebdcf557d46ef91e581b464bf7a44b2fc76889b8a1ff5c9c2841a17322f33a",
    "security lemma stdout": "1cb1dd39b3326dfd4607e460be4af762b99d582a239a6f6800de4a830825366d",
    "security attack-eval stdout":
        "3c0e3c61f5a785a5533896723e288657628095acb7f5d7ce01628196366c8a03",
}


class TestGoldenDigests:
    @pytest.mark.parametrize("name", sorted(GOLDEN_TRANSCRIPTS))
    def test_protocol_sim_shapes(self, name, strategy_d2, strategy_d3, mub2, tmp_path):
        strategy, am, c = {
            "honest-d3n1": (strategy_d3, None, cfg(d=3, rounds=1000, seed=101)),
            "honest-d2n2": (strategy_d2, None, cfg(n=2, rounds=500, seed=102)),
            "intercept-d2n2": (strategy_d2, atk.intercept_resend(mub2, 0, n=2),
                               cfg(n=2, rounds=500, seed=103)),
            "probe-d3n1": (strategy_d3, atk.probe_entangle(3, 0.8, n=1),
                           cfg(d=3, rounds=500, seed=104)),
        }[name]
        path = tmp_path / "t.jsonl"
        proto.save_transcript(proto.run_protocol(c, strategy, am), path)
        assert file_digest(path) == GOLDEN_TRANSCRIPTS[name]

    def test_readme_pipeline(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # the manifests echo the relative paths

        def run(*argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(list(argv))
            return code, hashlib.sha256(out.getvalue().encode()).hexdigest()

        code, gen = run("bases", "gen", "--dim", "3", "--out", "bases3.json")
        assert code == 0
        code, check = run("bases", "check", "--in", "bases3.json")
        assert code == 0
        code, build = run("strategy", "build", "--bases", "bases3.json", "--out", "strategy3.json")
        assert code == 0
        code, honest = run("run", "--strategy", "strategy3.json", "--rounds", "2000", "--seed", "7",
                           "--test-fraction", "0.1", "--out", "transcript.jsonl",
                           "--summary", "summary.json")
        assert code == 0
        code, attacked = run("run", "--strategy", "strategy3.json", "--rounds", "100",
                             "--seed", "7", "--attack", "intercept-resend:b=1",
                             "--test-fraction", "1.0", "--out", "t.jsonl")
        assert code == 3
        code, lemma = run("security", "lemma", "--dim", "2", "--n", "2")
        assert code == 0
        code, evaluation = run("security", "attack-eval", "--attack", "probe:theta=0.8",
                               "--dim", "2", "--sweep", "8")
        assert code == 0
        got = {"bases gen stdout": gen, "bases check stdout": check, "strategy build stdout": build,
               "run stdout": honest, "attacked run stdout": attacked,
               "security lemma stdout": lemma, "security attack-eval stdout": evaluation}
        got.update((name, file_digest(name)) for name in ("bases3.json", "strategy3.json",
                                                        "transcript.jsonl", "summary.json",
                                                        "t.jsonl"))
        assert got == GOLDEN_README_RUN
