import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import meanking
from meanking import cli
from meanking.serialize import file_digest


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture()
def bases_file(tmp_path, capsys):
    path = tmp_path / "b2.json"
    code, _ = run_cli(capsys, "bases", "gen", "--dim", "2", "--out", str(path))
    assert code == 0
    return path


@pytest.fixture()
def strategy_file(tmp_path, capsys, bases_file):
    path = tmp_path / "s2.json"
    code, _ = run_cli(
        capsys, "strategy", "build", "--bases", str(bases_file), "--out", str(path)
    )
    assert code == 0
    return path


class TestBasesCommands:
    def test_gen_then_check(self, tmp_path, capsys):
        path = tmp_path / "b3.json"
        code, out = run_cli(capsys, "bases", "gen", "--dim", "3", "--out", str(path))
        assert code == 0
        report = json.loads(out)["report"]
        assert report["orthonormal"] and report["classical_model"]
        assert report["span_rank"] == 9
        code, out = run_cli(capsys, "bases", "check", "--in", str(path))
        assert code == 0

    def test_gen_unsupported_dim(self, tmp_path, capsys):
        code, _ = run_cli(capsys, "bases", "gen", "--dim", "4", "--out", str(tmp_path / "x.json"))
        assert code == 1

    def test_check_corrupted_file(self, tmp_path, capsys, bases_file):
        data = json.loads(bases_file.read_text())
        data["bases"][0][0][0][0] = 0.25  # non-unit vector
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, out = run_cli(capsys, "bases", "check", "--in", str(bad))
        assert code == 2
        assert not json.loads(out)["report"]["orthonormal"]

    def test_check_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "garbage.json"
        bad.write_text('{"dim": 2}')
        code, _ = run_cli(capsys, "bases", "check", "--in", str(bad))
        assert code == 1


class TestStrategyCommand:
    def test_build(self, capsys, strategy_file):
        data = json.loads(strategy_file.read_text())
        assert len(data["entries"]) == 8
        assert all(e["p"] > 0 for e in data["entries"])

    def test_build_d3(self, tmp_path, capsys):
        bpath = tmp_path / "b3.json"
        spath = tmp_path / "s3.json"
        assert run_cli(capsys, "bases", "gen", "--dim", "3", "--out", str(bpath))[0] == 0
        code, out = run_cli(
            capsys, "strategy", "build", "--bases", str(bpath), "--out", str(spath)
        )
        assert code == 0
        assert json.loads(out)["report"]["entries"] == 81

    def test_degenerate_input(self, tmp_path, capsys, bases_file):
        data = json.loads(bases_file.read_text())
        data["bases"][1] = data["bases"][0]  # duplicated basis
        bad = tmp_path / "degenerate.json"
        bad.write_text(json.dumps(data))
        code, _ = run_cli(
            capsys, "strategy", "build", "--bases", str(bad), "--out", str(tmp_path / "s.json")
        )
        assert code == 2


class TestRunCommand:
    def test_honest_run(self, tmp_path, capsys, strategy_file):
        out_path = tmp_path / "t.jsonl"
        summary_path = tmp_path / "summary.json"
        code, out = run_cli(
            capsys, "run", "--strategy", str(strategy_file), "--rounds", "500",
            "--seed", "7", "--out", str(out_path), "--summary", str(summary_path),
        )
        assert code == 0
        report = json.loads(out)["report"]
        assert report["accepted"] and report["agreement_rate"] == 1.0
        assert json.loads(summary_path.read_text()) == report

    def test_intercept_resend_aborts(self, tmp_path, capsys, strategy_file):
        code, out = run_cli(
            capsys, "run", "--strategy", str(strategy_file), "--rounds", "300",
            "--seed", "7", "--test-fraction", "1.0",
            "--attack", "intercept-resend:b=1", "--out", str(tmp_path / "t.jsonl"),
        )
        assert code == 3
        report = json.loads(out)["report"]
        assert not report["accepted"]
        assert report["agreement_rate"] < 1.0

    def test_unknown_attack(self, tmp_path, capsys, strategy_file):
        code, _ = run_cli(
            capsys, "run", "--strategy", str(strategy_file), "--rounds", "10",
            "--seed", "1", "--attack", "nonsense:a=1", "--out", str(tmp_path / "t.jsonl"),
        )
        assert code == 1


class TestSecurityCommands:
    def test_lemma_n2(self, capsys):
        code, out = run_cli(capsys, "security", "lemma", "--dim", "2", "--n", "2")
        assert code == 0
        report = json.loads(out)["report"]
        assert report["solution_dim"] == 1
        assert report["witness_identity_deviation"] < 1e-8

    def test_attack_eval_none(self, capsys):
        code, out = run_cli(capsys, "security", "attack-eval", "--attack", "none", "--dim", "2")
        assert code == 0
        report = json.loads(out)["report"]
        assert report["detection_probability"] < 1e-10
        assert report["leakage"] < 1e-10

    def test_attack_eval_intercept_resend(self, capsys):
        code, out = run_cli(
            capsys, "security", "attack-eval", "--attack", "intercept-resend:b=1", "--dim", "2"
        )
        assert code == 0
        report = json.loads(out)["report"]
        assert report["detection_probability"] > 0.01
        assert report["leakage"] > 0.01

    def test_attack_eval_sweep(self, tmp_path, capsys):
        out_path = tmp_path / "curve.json"
        code, out = run_cli(
            capsys, "security", "attack-eval", "--attack", "probe:theta=1.0",
            "--dim", "2", "--sweep", "3", "--out", str(out_path),
        )
        assert code == 0
        curve = json.loads(out_path.read_text())["curve"]
        assert len(curve) == 3
        assert all(pt["detection_probability"] > 0 and pt["leakage"] > 0 for pt in curve)


class TestDeterminism:
    def test_run_byte_identical(self, tmp_path, capsys, strategy_file):
        digests = []
        stdouts = []
        for tag in ("one", "two"):
            out_path = tmp_path / f"{tag}.jsonl"
            code, out = run_cli(
                capsys, "run", "--strategy", str(strategy_file), "--rounds", "400",
                "--seed", "99", "--out", str(out_path),
            )
            assert code == 0
            digests.append(file_digest(out_path))
            stdouts.append(out.replace(f"{tag}.jsonl", "OUT.jsonl"))
        assert digests[0] == digests[1]
        assert stdouts[0] == stdouts[1]

    def test_gen_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "g1.json", tmp_path / "g2.json"]
        for p in paths:
            assert run_cli(capsys, "bases", "gen", "--dim", "5", "--out", str(p))[0] == 0
        assert file_digest(paths[0]) == file_digest(paths[1])


class TestEnvironment:
    def test_tol_override(self, tmp_path, capsys, bases_file, monkeypatch):
        data = json.loads(bases_file.read_text())
        data["bases"][0][0][0][0] = 1.0 + 2e-7  # violates 1e-9, passes 1e-6
        nudged = tmp_path / "nudged.json"
        nudged.write_text(json.dumps(data))
        code, _ = run_cli(capsys, "bases", "check", "--in", str(nudged))
        assert code == 2
        monkeypatch.setenv("MEANKING_TOL", "1e-6")
        code, _ = run_cli(capsys, "bases", "check", "--in", str(nudged))
        assert code == 0


class TestEntryPoint:
    def test_module_invocation(self):
        # the child must import the package under test, installed or not
        src = str(Path(meanking.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "meanking.cli", "--version"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "meanking" in proc.stdout
