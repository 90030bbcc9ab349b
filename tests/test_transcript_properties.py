"""Property tests of the code-array transcript and its file format.

Each example is a short protocol run at d in {2, 3} and n in {1, 2}, honest
or under intercept-resend or an entangling probe. Sifting and agreement are
checked against the per-record loops they replaced, which read the derived
``Transcript.records`` view. Random codes at d up to 12 check the
transcript's one decode, on both routes of ``protocol._distinct``, against
``oracles.fields``. The loader fuzzer mutates one line of a saved
transcript and requires that it raises ``ValueError`` or loads exactly the
records the file holds.
"""

import json
import re

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from meanking import attack as atk, protocol as proto
from oracles import fields

_SETTINGS = settings(max_examples=30, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def runs(draw):
    """``(d, n, attack kind, attack parameter, config)`` of a short run."""
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.sampled_from([1, 2]))
    kind = draw(st.sampled_from(["honest", "intercept", "probe"]))
    param = draw(st.integers(0, d)) if kind == "intercept" else draw(st.floats(0.1, 1.5))
    c = proto.ProtocolConfig(d=d, n=n, rounds=draw(st.integers(1, 60)),
                             test_fraction=draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])),
                             seed=draw(st.integers(0, 2**32 - 1)))
    return d, n, kind, param, c


def run(example, strategy_d2, strategy_d3, mub2, mub3):
    d, n, kind, param, c = example
    strategy, bs = {2: (strategy_d2, mub2), 3: (strategy_d3, mub3)}[d]
    if kind == "intercept":
        am = atk.intercept_resend(bs, param, n=n)
    elif kind == "probe":
        am = atk.probe_entangle(d, param, n=n)
    else:
        am = None
    return proto.run_protocol(c, strategy, am)


def reference_sift(records, test_indices):
    """Keys from the untested positions, one record at a time."""
    tested = set(test_indices)
    kept = [rec for pos, rec in enumerate(records) if pos not in tested]
    return ("".join(proto._DIGITS[rec.i_prime - 1] for rec in kept),
            "".join(proto._DIGITS[rec.i - 1] for rec in kept))


def reference_agreement(records):
    return sum(rec.i == rec.i_prime for rec in records) / len(records) if records else 1.0


@_SETTINGS
@given(example=runs())
def test_roundtrip_and_masks_match_record_loops(example, strategy_d2, strategy_d3, mub2, mub3,
                                                tmp_path):
    t = run(example, strategy_d2, strategy_d3, mub2, mub3)
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    proto.save_transcript(t, first)
    back = proto.load_transcript(first)
    proto.save_transcript(back, second)
    assert first.read_bytes() == second.read_bytes()
    np.testing.assert_array_equal(back.codes, t.codes)
    assert (back.config, back.k, back.test_indices, back.accepted) == \
        (t.config, t.k, t.test_indices, t.accepted)

    records = t.records
    assert proto.agreement_rate(t) == reference_agreement(records)
    accepted, keys = proto.sift_and_test(t)
    assert (keys.alice_key, keys.bob_key) == reference_sift(records, t.test_indices)
    assert accepted == all(records[pos].i == records[pos].i_prime for pos in t.test_indices)


@st.composite
def code_arrays(draw):
    """``(d, k, codes)``: random instance codes ``(b*d + i)*d**k + x`` of k bases in dimension d."""
    d = draw(st.sampled_from([2, 3, 5, 12]))
    k = draw(st.integers(1, 4))
    count = draw(st.integers(1, 120))
    values = st.tuples(st.integers(0, k - 1), st.integers(0, d - 1), st.integers(0, d**k - 1))
    rows = draw(st.lists(values, min_size=count, max_size=count))
    return d, k, np.array([(b * d + i) * d**k + x for b, i, x in rows], dtype=np.int64)


@_SETTINGS
@given(example=code_arrays(), fraction=st.sampled_from([0.0, 0.25, 1.0]))
def test_decode_matches_divmod_oracle(example, fraction, monkeypatch):
    d, k, codes = example
    c = proto.ProtocolConfig(d=d, n=1, rounds=len(codes), test_fraction=fraction, seed=len(codes))
    b, i, x, i_prime = want = fields(codes, d, k)
    hits = i == i_prime
    digits = [tuple(v // d ** (k - 1 - j) % d + 1 for j in range(k)) for v in x.tolist()]
    records = tuple(proto.RoundRecord(b=bb + 1, i=ii + 1, x=xs, i_prime=pp + 1)
                    for bb, ii, xs, pp in zip(b.tolist(), i.tolist(), digits, i_prime.tolist()))
    distinct = proto._distinct
    for span in (0, len(codes) + 1):  # the count route, then the sort route
        with monkeypatch.context() as patch:
            patch.setattr(proto, "_distinct", lambda codes, _span, span=span:
                          distinct(codes, span))
            t = proto.Transcript(config=c, k=k, codes=codes)
            for got, col in zip(t.columns(), want):
                np.testing.assert_array_equal(got, col)
            tested = list(t.test_indices)
            assert t.accepted == bool(hits[tested].all())
            assert proto.agreement_rate(t) == np.count_nonzero(hits) / len(codes)
            kept = np.delete(np.arange(len(codes)), tested)
            accepted, keys = proto.sift_and_test(t)
            assert accepted == t.accepted
            assert keys.alice_key == "".join(proto._DIGITS[v] for v in i_prime[kept].tolist())
            assert keys.bob_key == "".join(proto._DIGITS[v] for v in i[kept].tolist())
            assert t.records == records


@_SETTINGS
@given(example=runs())
def test_reformatted_records_load_line_by_line(example, strategy_d2, strategy_d3, mub2, mub3,
                                               tmp_path):
    # spaces after the separators keep the JSON but leave the canonical shape,
    # so the loader decodes each line on its own instead of as one array
    t = run(example, strategy_d2, strategy_d3, mub2, mub3)
    path = tmp_path / "t.jsonl"
    proto.save_transcript(t, path)
    header, *lines = path.read_text().splitlines(keepends=True)
    path.write_text(header + "".join(json.dumps(json.loads(line)) + "\n" for line in lines))
    np.testing.assert_array_equal(proto.load_transcript(path).codes, t.codes)


small_ints = st.integers(-2, 8)
json_values = st.recursive(
    small_ints | st.integers(-2**70, 2**70) | st.none() | st.booleans() | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)


@st.composite
def mutations(draw):
    """A function that changes one line of a transcript file's text."""
    how = draw(st.sampled_from(["bump", "value", "config", "drop key", "text", "duplicate"]))
    pick = draw(st.integers(0, 100))
    delta = draw(st.integers(-3, 5))
    value = draw(small_ints | st.lists(small_ints, max_size=5) | json_values)
    text = draw(st.text(alphabet='{}[]",:0123456789 -.eEtrunfalsbxi_\n', max_size=6))
    cut = draw(st.integers(0, 3))

    def mutate(line):
        if how == "bump":  # one integer moved: a canonical record keeps its shape
            numbers = list(re.finditer("[0-9]+", line))
            m = numbers[pick % len(numbers)]
            return line[:m.start()] + str(int(m.group()) + delta) + line[m.end():]
        if how == "text":
            at = pick % (len(line) + 1)
            return line[:at] + text + line[at + cut:]
        if how == "duplicate":  # two records on one line
            return line.rstrip("\n") + line
        obj = json.loads(line)
        target = obj["config"] if how == "config" and "config" in obj else obj
        key = sorted(target)[pick % len(target)]
        if how == "drop key":
            del target[key]
        else:
            target[key] = value
        return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"

    return mutate


@settings(_SETTINGS, max_examples=150)
@given(example=runs(), mutate=mutations(), line=st.integers(0, 10**6))
def test_mutated_file_loads_or_raises_value_error(example, mutate, line, strategy_d2,
                                                  strategy_d3, mub2, mub3, tmp_path):
    t = run(example, strategy_d2, strategy_d3, mub2, mub3)
    path = tmp_path / "t.jsonl"
    proto.save_transcript(t, path)
    lines = path.read_text().splitlines(keepends=True)
    at = line % len(lines)
    lines[at] = mutate(lines[at])
    path.write_text("".join(lines))
    try:
        back = proto.load_transcript(path)
    except ValueError:
        return
    # what loaded is what the file says: each record re-saves to its own fields
    again = tmp_path / "again.jsonl"
    proto.save_transcript(back, again)
    given = [json.loads(text) for text in path.read_text().splitlines()[1:] if text.strip()]
    saved = [json.loads(text) for text in again.read_text().splitlines()[1:]]
    assert saved == [{key: rec[key] for key in ("b", "i", "i_prime", "x")} for rec in given]
