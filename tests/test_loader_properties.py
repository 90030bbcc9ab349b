"""Loader fuzzer for the basis-set, strategy and attack files, and the refusal table.

Each fuzzer example saves one d=2 file, changes one value or key somewhere in
its JSON tree (or a few characters of its text), and hands it to the command
that reads it. Whatever the file now says, the command must end with exit
0, 1 or 2 and an ``error:`` line for a refusal, never with an exception.

The refusal table gives every kind of input file (basis set, v2 and v1
strategy, attack, transcript header and record) a field of the wrong JSON
type, an extra or a missing key, or 100 000 nested ``[``: each is refused
with ``FormatError``, and through the command that reads it with exit 1 and
one ``error: bad <kind> file`` line under 300 characters.
"""

import json
import re
from typing import Callable, NamedTuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from meanking import attack, bases, cli, protocol, retrodiction, serialize

_SETTINGS = settings(max_examples=300, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])

small_numbers = st.integers(-3, 20) | st.floats(-4.0, 4.0)
json_values = st.recursive(
    small_numbers | st.integers(-2**70, 2**70) | st.floats() | st.none() | st.booleans()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8,
)


@pytest.fixture(scope="module")
def saved(tmp_path_factory, mub2, strategy_d2, v1_files):
    """The text of each kind of file, as written by the package; a v1 strategy as 0.7.0 wrote it."""
    root = tmp_path_factory.mktemp("saved")
    paths = {kind: root / f"{kind}.json"
             for kind in ("bases", "strategy", "attack", "attack_identity", "transcript")}
    bases.save_basis_set(mub2, paths["bases"])
    retrodiction.save_strategy(strategy_d2, paths["strategy"])
    attack.save_attack(attack.intercept_resend(mub2, 1), paths["attack"])
    attack.save_attack(attack.identity_attack(2), paths["attack_identity"])
    config = protocol.ProtocolConfig(d=2, n=1, rounds=20, test_fraction=0.25, seed=51)
    protocol.save_transcript(protocol.run_protocol(config, strategy_d2), paths["transcript"])
    paths["strategy_v1"] = v1_files[2]
    return {kind: path.read_text() for kind, path in paths.items()}


def _commands(kind, path):
    return {"bases": [["bases", "check", "--in", path]],
            "strategy": [["security", "lemma", "--strategy", path]],
            "strategy_v1": [["security", "lemma", "--strategy", path]],
            "attack": [["security", "attack-eval", "--attack", f"file:{path}"]]}[kind]


def _containers(node, out):
    """Every list and dict in the tree, in a fixed order."""
    if isinstance(node, (list, dict)):
        out.append(node)
        for child in (node.values() if isinstance(node, dict) else node):
            _containers(child, out)
    return out


@st.composite
def mutations(draw):
    """A function that changes one place of a file's text."""
    how = draw(st.sampled_from(["value", "scale", "drop", "rename", "text"]))
    pick = draw(st.integers(0, 10**6))
    slot = draw(st.integers(0, 10**6))
    value = draw(json_values)
    factor = draw(st.sampled_from([0.0, -1.0, 0.5, 1 + 1e-7, 2.0, 1e200]))
    name = draw(st.text(max_size=4))
    text = draw(st.text(alphabet='{}[]",:0123456789 -.eEINaftyn', max_size=6))
    cut = draw(st.integers(0, 3))

    def mutate(source):
        if how == "text":
            at = pick % (len(source) + 1)
            return source[:at] + text + source[at + cut:]
        obj = json.loads(source)
        containers = [c for c in _containers(obj, []) if c]
        node = containers[pick % len(containers)]
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        key = list(keys)[slot % len(node)]
        if how == "drop":
            del node[key]
        elif how == "rename" and isinstance(node, dict):
            node[name] = node.pop(key)
        elif how == "scale" and isinstance(node[key], (int, float)) \
                and not isinstance(node[key], bool):
            node[key] = node[key] * factor
        else:
            node[key] = value
        return json.dumps(obj)

    return mutate


@_SETTINGS
@given(kind=st.sampled_from(["bases", "strategy", "strategy_v1", "attack"]), mutate=mutations())
def test_mutated_file_exits_cleanly(kind, mutate, saved, tmp_path, capsys):
    path = tmp_path / f"{kind}.json"
    path.write_text(mutate(saved[kind]))
    for argv in _commands(kind, str(path)):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code in (0, 1, 2), (argv, code)
        if code == 1:
            assert captured.out == "" and captured.err.startswith("error: ")
        assert "Traceback" not in captured.err


DROP = object()  # the value that deletes an entry


def _at(data, path, value):
    """A copy of ``data`` with the entry at ``path`` (keys and indices) set to ``value``."""
    data = json.loads(json.dumps(data))
    node = data
    for key in path[:-1]:
        node = node[key]
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return data


# the wrongly typed values a field of each kind is given: an integer field that
# holds 2, a number, and an [re, im] entry that holds 1 + 0j. The complex ones and
# the integer's 2.0 and "2" keep the value, so a coercing loader reads the file it was.
_MISTYPED = {"integer": (("2.0", 2.0), ("2.5", 2.5), ("true", True), ("string", "2")),
             "number": (("string", "0.5"), ("true", True), ("null", None)),
             "complex": (("string", ["1", 0.0]), ("true", [True, 0.0]))}
# an array field nested 100 deep decodes, but numpy makes it 64 dimensions, more
# than its flat iterator takes
DEEP = json.loads("[" * 100 + "]" * 100)


def _mistyped(data, **paths):
    """Variants of ``data`` with the field at each path given a value of the wrong type, by name."""
    return {f"{field}-{name}": _at(data, path, value)
            for field, path in paths.items() for name, value in _MISTYPED[field]}


def _v2_defects(data):
    """Each malformed variant of a v2 strategy file's fields, by name."""
    g = data["generators"]
    return {
        **_mistyped(data, integer=["dim"], complex=["bases", 0, 0, 0]),
        "format": {**data, "format": "meanking-strategy-v3"},
        "no-format": {k: v for k, v in data.items() if k != "format"},
        "no-generators": {k: v for k, v in data.items() if k != "generators"},
        "extra-key": {**data, "extra": 1},
        "missing-key": {k: v for k, v in data.items() if k != "bases"},  # checked first
        "generators-short": {**data, "generators": g[:-1]},
        "generator-short": {**data, "generators": [g[0][:1]] + g[1:]},
        "generators-flat": {**data, "generators": [z for b in g for j in b for z in j]},
        "generators-not-pairs": {**data, "generators": [[[1.0, 2.0, 3.0]]]},
        "weights-text": {**data, "weights": "0.125"},
        "weights-bool": {**data, "weights": True},
        "weights-null": {**data, "weights": None},
        "weights-short": {**data, "weights": [data["weights"]] * 7},
        "weights-nested": {**data, "weights": [[data["weights"]]] * 8},
        "weights-deep": {**data, "weights": DEEP},
        "dim": {**data, "dim": 3},
    }


@pytest.mark.parametrize("defect", sorted(_v2_defects({"generators": [[]], "weights": 0,
                                                       "bases": [[[0]]]})))
def test_malformed_v2_file_exits_1(defect, saved, tmp_path, capsys):
    path = tmp_path / "strategy.json"
    path.write_text(json.dumps(_v2_defects(json.loads(saved["strategy"]))[defect]))
    with pytest.raises(bases.FormatError, match="^bad strategy file") as refused:
        retrodiction.load_strategy(path)
    if defect.endswith("-key"):
        assert f"{defect.split('-')[0]} key '" in str(refused.value)
    for argv in (_commands("strategy", str(path))
                 + [["run", "--strategy", str(path), "--rounds", "4", "--seed", "1",
                     "--out", str(tmp_path / "t.jsonl")]]):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 1, (defect, argv, captured.err)
        assert captured.out == "" and captured.err.startswith("error: bad strategy file")
        assert len(captured.err) < 300
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


NESTED = "[" * 100_000


class _Kind(NamedTuple):
    label: str  # the kind the refusal names: "bad <label> file"
    saved: str  # the key of its text in ``saved``
    load: Callable
    command: Callable | None  # (path, out) -> argv of the command that reads it, if any
    fields: dict  # the path of each mistyped field, by _MISTYPED key
    extra: dict  # further cases, as (path, value); the value DROP deletes the entry


_KINDS = {
    "bases": _Kind(
        "basis-set", "bases", bases.load_basis_set,
        lambda path, out: ["bases", "check", "--in", path],
        {"integer": ["dim"], "number": ["bases", 1, 0, 0, 0], "complex": ["bases", 0, 0, 0]},
        {"deep": (["bases"], DEEP), "extra-key": (["extra"], 1),
         "missing-key": (["dim"], DROP)}),
    "strategy_v1": _Kind(
        "strategy", "strategy_v1", retrodiction.load_strategy,
        lambda path, out: ["run", "--strategy", path, "--rounds", "4", "--seed", "1",
                           "--out", out],
        {"integer": ["dim"], "number": ["entries", 0, "p"], "complex": ["bases", 0, 0, 0]},
        {"x-floats": (["entries", 0, "x"], [0.0, 0.0, 0.0]), "deep": (["omega"], DEEP),
         "extra-key": (["extra"], 1), "missing-key": (["bases"], DROP),
         "entry-extra-key": (["entries", 0, "extra"], 1),
         "entry-missing-key": (["entries", 0, "p"], DROP)}),
    "attack": _Kind(
        "attack", "attack_identity", attack.load_attack,
        lambda path, out: ["security", "attack-eval", "--dim", "2", "--attack", f"file:{path}",
                           "--out", out],
        {"integer": ["d"], "number": ["psi_abe", 0, 0], "complex": ["kraus", 0, 0, 0]},
        {"deep": (["kraus"], DEEP), "extra-key": (["extra"], 1),
         "missing-key": (["d_E"], DROP)}),
    "transcript_header": _Kind(
        "transcript", "transcript", protocol.load_transcript, None,
        {"integer": ["config", "d"], "number": ["config", "test_fraction"]},
        {"extra-key": (["extra"], 1), "missing-key": (["accepted"], DROP)}),
    "transcript_record": _Kind(
        "transcript", "transcript", protocol.load_transcript, None, {"integer": ["b"]},
        {"extra-key": (["extra"], 1), "missing-key": (["x"], DROP)}),
}


def _refusals():
    """Every (kind, case) of the refusal table; the v2 strategy's typed cases are in _v2_defects."""
    cases = [(kind, f"{field}-{name}") for kind, spec in _KINDS.items()
             for field in spec.fields for name, _ in _MISTYPED[field]]
    cases += [(kind, case) for kind, spec in _KINDS.items() for case in spec.extra]
    return cases + [(kind, "nested") for kind in ["strategy", *_KINDS]]


def _variant(kind, case, data):
    """``data`` as refusal case ``case`` of ``kind`` has it."""
    spec = _KINDS[kind]
    if case in spec.extra:
        return _at(data, *spec.extra[case])
    return _mistyped(data, **spec.fields)[case]


def _refused_text(kind, case, saved):
    """The text of the file of one refusal case."""
    if case == "nested" and not kind.startswith("transcript"):
        return NESTED
    text = saved[_KINDS[kind].saved]
    if not kind.startswith("transcript"):
        return json.dumps(_variant(kind, case, json.loads(text)))
    lines = text.splitlines()
    # the record mistyped is one whose b is 2, the integer the variants stand for
    at = 0 if kind == "transcript_header" else next(
        j for j, line in enumerate(lines[1:], 1) if json.loads(line)["b"] == 2)
    lines[at] = NESTED if case == "nested" else json.dumps(_variant(kind, case,
                                                                    json.loads(lines[at])))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("kind, case", _refusals())
def test_refusal_table(kind, case, saved, tmp_path, capsys):
    label, _, load, command = _KINDS.get(kind, _KINDS["strategy_v1"])[:4]  # v2: as v1
    path, out = tmp_path / "input.json", tmp_path / "out.json"
    path.write_text(_refused_text(kind, case, saved))
    prefix = f"bad {label} file {path}: "
    with pytest.raises(serialize.FormatError, match="^" + re.escape(prefix)) as refused:
        load(path)
    if case.endswith("-key"):  # the message names the key, as extra or missing
        assert f"{case.split('-')[-2]} key '" in str(refused.value)
    if command is None:  # no command reads a transcript
        return
    assert cli.main(command(str(path), str(out))) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: " + prefix) and len(captured.err) < 300
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_format_error_is_one_class():
    assert bases.FormatError is serialize.FormatError
    assert issubclass(serialize.FormatError, ValueError)


def test_refusals_are_one_class():
    # the CLI exits 2 for exactly this family; each member is still a RuntimeError
    for refusal in (bases.OverBudget, retrodiction.ResidualTooLarge, retrodiction.NotMaximal,
                    retrodiction.Infeasible, protocol.ProtocolError,
                    attack.ZeroProbabilityOutcome):
        assert issubclass(refusal, bases.Refused) and issubclass(refusal, RuntimeError)
    assert not issubclass(bases.Refused, ValueError)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(b=st.integers(0, 2), j=st.integers(0, 1), entry=st.integers(0, 3),
       part=st.integers(0, 1), shift=st.sampled_from([-1e-3, 1e-3, 0.1, 2.0]))
def test_perturbed_generator_exits_2(b, j, entry, part, shift, saved, tmp_path, capsys):
    # a generator moved by more than the tolerances breaks completeness: a verdict, exit 2
    data = json.loads(saved["strategy"])
    data["generators"][b][j][entry][part] += shift
    path = tmp_path / "strategy.json"
    path.write_text(json.dumps(data))
    code = cli.main(_commands("strategy", str(path))[0])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: stored strategy violates completeness")


LONG = "x" * 100_000


def test_ordinary_record_is_quoted_whole(saved, tmp_path):
    # the bound on a record line cuts only lines longer than a record, so the message names it
    head, first, body = saved["transcript"].split("\n", 2)
    record = json.loads(first)
    record.update(i_prime=1 - record["i_prime"])
    line = json.dumps(record)
    path = tmp_path / "transcript.jsonl"
    path.write_text("\n".join([head, line, body]))
    with pytest.raises(serialize.FormatError, match="differs from x") as refused:
        protocol.load_transcript(path)
    assert f"record {line!r}" in str(refused.value)


@pytest.mark.parametrize("kind, field", [("strategy", "format"), ("transcript", "format"),
                                         ("transcript", "accepted"), ("transcript", "record")])
def test_long_value_is_bounded_in_the_message(kind, field, saved, tmp_path, capsys):
    # the refusal quotes the value, or the record line, through reprlib, as the shared
    # rules do, not whole
    path, out = tmp_path / "input.json", tmp_path / "out.json"
    if kind == "strategy":
        data = json.loads(saved["strategy"])
        data[field] = LONG
        path.write_text(json.dumps(data))
    elif field == "record":  # a long line whose i_prime is not x(b)
        head, first, body = saved["transcript"].split("\n", 2)
        record = json.loads(first)
        record.update(i_prime=1 - record["i_prime"], padding=LONG)
        path.write_text("\n".join([head, json.dumps(record), body]))
    else:
        head, body = saved["transcript"].split("\n", 1)
        path.write_text(json.dumps({**json.loads(head), field: LONG}) + "\n" + body)
    load = {"strategy": retrodiction.load_strategy, "transcript": protocol.load_transcript}[kind]
    with pytest.raises(serialize.FormatError, match=f"^bad {kind} file") as refused:
        load(path)
    assert len(f"error: {refused.value}") < 300
    if kind == "transcript":  # no command reads a transcript
        return
    for argv in _commands("strategy", str(path)) + [
            ["run", "--strategy", str(path), "--rounds", "4", "--seed", "1", "--out", str(out)]]:
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error: bad strategy file") and len(captured.err) < 300
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
