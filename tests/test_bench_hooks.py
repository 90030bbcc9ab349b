"""The benchmark tracer (``perfbench/tracing.py``) wraps package functions by name.

Installing it fails if a function it names was renamed or removed, which
would break ``perfbench/run.py --trace 1``.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import meanking.cli  # noqa: F401  install() also rebinds the names the CLI imported
from meanking import attack, protocol, security

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_and_no_per_outcome_projection(strategy_d2):
    # the pass projects a whole basis block at once; _branch_vectors is the
    # single-outcome projection behind alice_state only
    tracer = _load_tracing().Tracer()
    original = attack._branch_vectors
    tracer.install()
    try:
        assert attack._branch_vectors is not original
        attack.evaluate_attack(strategy_d2, attack.intercept_resend(strategy_d2.basis_set, 0))
    finally:
        tracer.uninstall()
    assert attack._branch_vectors is original
    assert [span[0] for span in tracer.spans] == ["attack.evaluate_attack"]
    assert tracer.counts["attack.grid_points"] == 6
    assert tracer.counts["attack.branch_vectors"] == 0


def test_attacked_run_needs_no_single_outcome_state(strategy_d2):
    # the sampler draws from the block walk, so no alice_state per drawn (b, i)
    am = attack.intercept_resend(strategy_d2.basis_set, 0, n=2)
    cfg = protocol.ProtocolConfig(d=2, n=2, rounds=50, test_fraction=0.1, seed=3)
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        protocol.run_protocol(cfg, strategy_d2, am)
    finally:
        tracer.uninstall()
    assert [span[0] for span in tracer.spans] == ["protocol.run_protocol_attacked"]
    assert tracer.counts["protocol.instances"] == 100
    assert tracer.counts["attack.branch_vectors"] == 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_commutant_stacks_one_block(strategy_d2, monkeypatch, n):
    # the closed form builds no form; the enumerated route's d=2 form is D**2 x D**2
    # with D = 4, whatever the block length
    for closed_form, rows in ((security._closed_form, 0), (lambda *_args: None, 16)):
        monkeypatch.setattr(security, "_closed_form", closed_form)
        tracer = _load_tracing().Tracer()
        tracer.install()
        try:
            security.product_commutant_check(strategy_d2, n)
        finally:
            tracer.uninstall()
        assert tracer.counts["security.constraint_rows"] == rows


@pytest.mark.parametrize("step, argv, spans", [
    ("bases-gen", ["bases", "gen", "--dim", "2", "--out", "b2.json"],
     ["bases.gen_mub", "serialize.write_json"]),
    ("attack-eval", ["security", "attack-eval", "--attack", "probe", "--dim", "2"],
     ["attack.evaluate_attack"]),
])
def test_traced_child_matches_plain_run(tmp_path, step, argv, spans):
    # perfbench/cli_child.py installs the tracer after `import meanking.cli`, when
    # the modules are registered but not yet run; install() loads each one it wraps
    src = str(Path(meanking.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    plain_dir, traced_dir = tmp_path / "plain", tmp_path / "traced"
    plain_dir.mkdir()
    traced_dir.mkdir()
    plain = subprocess.run([sys.executable, "-m", "meanking.cli", *argv], cwd=plain_dir,
                           capture_output=True, env=env)
    spans_path = tmp_path / "spans.json"
    traced = subprocess.run([sys.executable, str(PERFBENCH / "cli_child.py"), str(spans_path), step,
                             *argv], cwd=traced_dir, capture_output=True, env=env)
    assert plain.returncode == 0, plain.stderr
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    files = sorted(path.name for path in plain_dir.iterdir())
    assert sorted(path.name for path in traced_dir.iterdir()) == files
    for name in files:
        assert (traced_dir / name).read_bytes() == (plain_dir / name).read_bytes()
    names = {span[0] for span in json.loads(spans_path.read_text())["spans"]}
    assert {"import.meanking", f"cli.{step}", *spans} <= names
