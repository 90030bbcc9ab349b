"""Loader fuzzer for the basis-set, strategy and attack files.

Each example saves one d=2 file, changes one value or key somewhere in its
JSON tree (or a few characters of its text), and hands it to the command
that reads it. Whatever the file now says, the command must end with exit
0, 1 or 2 and an ``error:`` line for a refusal, never with an exception.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from meanking import attack, bases, cli, retrodiction

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
    paths = {kind: root / f"{kind}.json" for kind in ("bases", "strategy", "attack")}
    bases.save_basis_set(mub2, paths["bases"])
    retrodiction.save_strategy(strategy_d2, paths["strategy"])
    attack.save_attack(attack.intercept_resend(mub2, 1), paths["attack"])
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


def _v2_defects(data):
    """Each malformed variant of a v2 strategy file's fields, by name."""
    g = data["generators"]
    return {
        "format": {**data, "format": "meanking-strategy-v3"},
        "no-format": {k: v for k, v in data.items() if k != "format"},
        "no-generators": {k: v for k, v in data.items() if k != "generators"},
        "generators-short": {**data, "generators": g[:-1]},
        "generator-short": {**data, "generators": [g[0][:1]] + g[1:]},
        "generators-flat": {**data, "generators": [z for b in g for j in b for z in j]},
        "generators-not-pairs": {**data, "generators": [[[1.0, 2.0, 3.0]]]},
        "weights-text": {**data, "weights": "0.125"},
        "weights-bool": {**data, "weights": True},
        "weights-null": {**data, "weights": None},
        "weights-short": {**data, "weights": [data["weights"]] * 7},
        "weights-nested": {**data, "weights": [[data["weights"]]] * 8},
        "dim": {**data, "dim": 3},
    }


@pytest.mark.parametrize("defect", sorted(_v2_defects({"generators": [[]], "weights": 0})))
def test_malformed_v2_file_exits_1(defect, saved, tmp_path, capsys):
    path = tmp_path / "strategy.json"
    path.write_text(json.dumps(_v2_defects(json.loads(saved["strategy"]))[defect]))
    for argv in (_commands("strategy", str(path))
                 + [["run", "--strategy", str(path), "--rounds", "4", "--seed", "1",
                     "--out", str(tmp_path / "t.jsonl")]]):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 1, (defect, argv, captured.err)
        assert captured.out == "" and captured.err.startswith("error: bad strategy file")


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
