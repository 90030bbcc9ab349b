import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import meanking
from meanking import attack, bases, cli, protocol, qmath, retrodiction, security
from meanking.serialize import canonical_dumps, complex_to_pairs, file_digest, write_json
from oracles import intercept_resend_detection


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


@pytest.fixture()
def v1_strategy_file(tmp_path, v1_files):
    """A copy of the d=2 strategy file in the v1 layout, which the loader still reads."""
    path = tmp_path / "s2_v1.json"
    path.write_bytes(v1_files[2].read_bytes())
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

    def test_check_classical_model_over_budget(self, tmp_path, capsys, monkeypatch):
        # k repeats of the d=2 MUBs are not pairwise flat, and their
        # classical-model LP would have 2**k variables, over MAX_GUESSING_FUNCTIONS
        def refuse(*_args):
            raise AssertionError("LP built despite the budget")

        monkeypatch.setattr(bases, "_classical_model_lp", refuse)
        for k in (16, 18):
            repeats = bases.BasisSet(bases.gen_mub(2).vectors[np.arange(k) % 3])
            path = tmp_path / f"repeats{k}.json"
            bases.save_basis_set(repeats, path)
            code = cli.main(["bases", "check", "--in", str(path)])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert f"{2**k} variables exceeds the supported size" in captured.err

    def test_check_over_validation_budget(self, tmp_path, capsys):
        # d = 17 is one past bases.MAX_VALIDATE_DIM: an input over its size budget
        d = 17
        fourier = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d) / np.sqrt(d)
        path = tmp_path / "b17.json"
        bases.save_basis_set(bases.BasisSet([np.eye(d), fourier]), path)
        code = cli.main(["bases", "check", "--in", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: validation supports d <= 16, not d = 17\n"

    def test_tol_below_validation_floor_refused(self, tmp_path, capsys, mub2, biased_copy):
        path = tmp_path / "turned.json"
        bases.save_basis_set(biased_copy(mub2, 3e-11), path)
        for argv in (["check", "--in", str(path)],
                     ["gen", "--dim", "2", "--out", str(tmp_path / "b2.json")]):
            code = cli.main(["bases", *argv, "--tol", "1e-12"])
            captured = capsys.readouterr()
            assert code == 1 and captured.out == ""
            assert captured.err == "error: tolerance 1e-12 is below the validation floor 1e-09\n"
        assert not (tmp_path / "b2.json").exists()
        code, out = run_cli(capsys, "bases", "check", "--in", str(path), "--tol", "1e-9")
        assert code == 0 and json.loads(out)["report"]["unbiased"]

    def test_check_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "garbage.json"
        bad.write_text('{"dim": 2}')
        code, _ = run_cli(capsys, "bases", "check", "--in", str(bad))
        assert code == 1


class TestStrategyCommand:
    def test_build(self, capsys, strategy_file):
        data = json.loads(strategy_file.read_text())
        assert data["format"] == retrodiction.STRATEGY_FORMAT
        assert np.shape(data["generators"]) == (3, 2, 4, 2)
        assert data["weights"] > 0

    def test_build_d3(self, tmp_path, capsys):
        bpath = tmp_path / "b3.json"
        spath = tmp_path / "s3.json"
        assert run_cli(capsys, "bases", "gen", "--dim", "3", "--out", str(bpath))[0] == 0
        code, out = run_cli(
            capsys, "strategy", "build", "--bases", str(bpath), "--out", str(spath)
        )
        assert code == 0
        assert json.loads(out)["report"]["entries"] == 81

    def test_build_over_budget(self, tmp_path, capsys, monkeypatch):
        # d=7 builds without listing its 7**8 guessing functions; what must list them is
        # refused: an attacked run, and the lemma without its closed form
        path, spath, out = tmp_path / "b7.json", tmp_path / "s7.json", tmp_path / "out.json"
        bases.save_basis_set(bases.gen_mub(7), path)
        assert cli.main(["strategy", "build", "--bases", str(path), "--out", str(spath)]) == 0
        assert json.loads(capsys.readouterr().out)["report"]["entries"] == 7**8
        code, out_text = run_cli(capsys, "security", "lemma", "--strategy", str(spath))
        assert code == 0 and json.loads(out_text)["report"]["solution_dim"] == 1
        monkeypatch.setattr(security, "_closed_form", lambda *_args: None)
        for argv, message in ((["security", "lemma"], "exceed the enumeration budget"),
                              (["run", "--rounds", "10", "--seed", "1",
                                "--attack", "intercept-resend:b=1"], "sampler too large")):
            code = cli.main(argv + ["--strategy", str(spath), "--out", str(out)])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == "" and message in captured.err
            assert not out.exists()
        # an honest run draws in closed form and lists nothing
        code = cli.main(["run", "--strategy", str(spath), "--rounds", "20000", "--seed", "7",
                         "--test-fraction", "0.1", "--out", str(out)])
        report = json.loads(capsys.readouterr().out)["report"]
        assert code == 0 and report["accepted"] and report["agreement_rate"] == 1.0
        assert protocol.load_transcript(out).accepted

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

    @pytest.mark.parametrize("d, n", [(2, 7), (3, 4)])
    def test_honest_run_past_the_block_budget(self, tmp_path, capsys, strategy_d2, strategy_d3,
                                              d, n):
        # an honest run draws single instances, so no block of d**n is built: the block
        # budget, d**(2n) <= 4096, holds attacks only
        strategy_path, out_path = tmp_path / "s.json", tmp_path / "t.jsonl"
        retrodiction.save_strategy({2: strategy_d2, 3: strategy_d3}[d], strategy_path)
        code, out = run_cli(capsys, "run", "--strategy", str(strategy_path), "--rounds", "10",
                            "--n", str(n), "--seed", "7", "--out", str(out_path))
        assert code == 0
        report = json.loads(out)["report"]
        assert report["instances"] == 10 * n
        assert report["accepted"] and report["agreement_rate"] == 1.0
        assert len(protocol.load_transcript(out_path).codes) == 10 * n

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

    @pytest.mark.parametrize("spec", ["intercept-resend:bb=1", "none:b=1"])
    def test_unknown_attack_parameter(self, tmp_path, capsys, strategy_file, spec):
        code = cli.main(["run", "--strategy", str(strategy_file), "--rounds", "10",
                         "--seed", "1", "--attack", spec, "--out", str(tmp_path / "t.jsonl")])
        assert code == 1
        assert "takes no parameter" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-1", "config seed must be an integer >= 0, not -1"),
        ("--n", "0", "config n must be an integer >= 1, not 0"),
        ("--test-fraction", "nan", "config test_fraction must be a number in [0, 1], not nan"),
    ])
    def test_bad_config_refused(self, tmp_path, capsys, strategy_file, monkeypatch, flag, value,
                                message):
        def refuse(*_args):
            raise AssertionError("sampled despite a bad config")

        monkeypatch.setattr(protocol, "_sample", refuse)
        out_path = tmp_path / "t.jsonl"
        argv = {"--seed": "1", "--n": "1", "--test-fraction": "0.1", flag: value}
        code = cli.main(["run", "--strategy", str(strategy_file), "--rounds", "10",
                         "--out", str(out_path), *[x for kv in argv.items() for x in kv]])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and not out_path.exists()
        assert captured.err == f"error: {message}\n"

    def test_sampler_over_budget(self, tmp_path, capsys, strategy_d3, monkeypatch):
        def refuse(*_args):
            raise AssertionError("Born rows built despite the budget")

        monkeypatch.setattr(attack, "_born_rows", refuse)
        spath, out_path = tmp_path / "s3.json", tmp_path / "t.jsonl"
        retrodiction.save_strategy(strategy_d3, spath)
        code = cli.main(["run", "--strategy", str(spath), "--rounds", "1", "--n", "3", "--seed",
                         "1", "--attack", "intercept-resend:b=1", "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "sampler too large" in captured.err
        assert not out_path.exists()


class TestSecurityCommands:
    def test_lemma_n2(self, capsys):
        code, out = run_cli(capsys, "security", "lemma", "--dim", "2", "--n", "2")
        assert code == 0
        report = json.loads(out)["report"]
        assert report["solution_dim"] == 1
        assert report["witness_identity_deviation"] < 1e-8

    @pytest.mark.parametrize("dim, n, rank", [(2, 3, 4095), (3, 2, 6560), (5, 1, 624)])
    def test_lemma_larger_blocks(self, capsys, dim, n, rank):
        # each MUB set is decided in closed form, from its k*d generators; the margin is 1 - 1/d
        code, out = run_cli(capsys, "security", "lemma", "--dim", str(dim), "--n", str(n))
        assert code == 0
        report = json.loads(out)["report"]
        assert report["solution_dim"] == 1 and report["constraint_rank"] == rank
        assert report["witness_identity_deviation"] < 1e-8
        assert report["spectral_gap"] == pytest.approx(1 - 1 / dim, abs=1e-12)

    def test_lemma_over_budget(self, tmp_path, capsys, monkeypatch):
        # the closed form builds no form; without it, 255 entries refuse the single-block
        # form's 256 at d=2, and for n >= 2 the 16 x 16 block operator (256 entries) first
        monkeypatch.setattr(bases, "MAX_ARRAY_ENTRIES", 255)
        code, out = run_cli(capsys, "security", "lemma", "--dim", "2")
        assert code == 0 and json.loads(out)["report"]["solution_dim"] == 1
        monkeypatch.setattr(security, "_closed_form", lambda *_args: None)
        out_path = tmp_path / "lemma.json"
        for n, message in ((1, "commutant check too large"),
                           (2, "block dimension 2**(2*2)*1 exceeds budget 15")):
            code = cli.main(["security", "lemma", "--dim", "2", "--n", str(n),
                             "--out", str(out_path)])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert message in captured.err
            assert not out_path.exists()

    def test_lemma_over_block_budget(self, tmp_path, capsys):
        # d**(2n) over the block budget is refused before d**(4n) is formed
        out_path = tmp_path / "lemma.json"
        code = cli.main(["security", "lemma", "--dim", "3", "--n", "10000000",
                         "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "block dimension 3**(2*10000000)*1 exceeds budget 4096" in captured.err
        assert not out_path.exists()

    def test_lemma_tol_below_rounding_floor(self, tmp_path, capsys):
        # no eigenvalue of the 81 x 81 form resolves below 81 * eps of the largest
        out_path = tmp_path / "lemma.json"
        code = cli.main(["security", "lemma", "--dim", "3", "--tol", "1e-20",
                         "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.count("\n") == 1 and "below the rounding floor" in captured.err
        assert not out_path.exists()
        code, out = run_cli(capsys, "security", "lemma", "--dim", "3")
        assert code == 0 and json.loads(out)["report"]["solution_dim"] == 1

    def test_lemma_not_maximal_strategy(self, tmp_path, capsys, zero_weight_strategy):
        path = tmp_path / "s.json"
        retrodiction.save_strategy(zero_weight_strategy, path)
        code = cli.main(["security", "lemma", "--strategy", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "not maximal" in captured.err

    @pytest.mark.parametrize("command", [["lemma"], ["attack-eval", "--attack", "none"]])
    @pytest.mark.parametrize("source", ["--strategy", "--bases"])
    def test_manifest_echoes_the_strategy_dimension(self, tmp_path, capsys, mub3, strategy_d3,
                                                    command, source):
        # a d=3 file decides the dimension, and the manifest echoes it
        path = tmp_path / "in.json"
        if source == "--strategy":
            retrodiction.save_strategy(strategy_d3, path)
        else:
            bases.save_basis_set(mub3, path)
        code, out = run_cli(capsys, "security", *command, source, str(path))
        assert code == 0
        assert json.loads(out)["manifest"]["config"]["dim"] == 3

    @pytest.mark.parametrize("command", [["lemma"], ["attack-eval", "--attack", "none"]])
    @pytest.mark.parametrize("first, second", [("--dim", "--bases"), ("--dim", "--strategy"),
                                               ("--bases", "--strategy")])
    def test_one_strategy_source(self, tmp_path, capsys, strategy_file, command, first, second):
        # an explicit --dim 2, the value used when no source is given, counts as given too
        values = {"--dim": "2", "--bases": str(tmp_path / "unread.json"),
                  "--strategy": str(strategy_file)}
        code = cli.main(["security", *command, first, values[first], second, values[second]])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.count("\n") == 1
        assert f"argument {second}: not allowed with argument {first}" in captured.err

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

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_attack_eval_intercept_resend_closed_form(self, capsys, request, d):
        code, out = run_cli(
            capsys, "security", "attack-eval", "--attack", "intercept-resend:b=1", "--dim", str(d)
        )
        assert code == 0
        detection = json.loads(out)["report"]["detection_probability"]
        assert detection == pytest.approx((d - 1) ** 2 / (d * (d + 1)), abs=1e-12)
        strategy = request.getfixturevalue(f"strategy_d{d}")
        if d < 5:
            assert detection == pytest.approx(intercept_resend_detection(strategy, 0), abs=1e-12)
        assert np.all(strategy.weights == strategy.weights[0])
        assert strategy.completeness_residual <= 1e-8

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

    def test_attack_eval_sweep_keeps_other_parameters(self, capsys, monkeypatch):
        built = []
        probe = attack.probe_entangle

        def recording_probe(d, theta, n=1, d_eve=2):
            built.append((theta, d_eve))
            return probe(d, theta, n=n, d_eve=d_eve)

        monkeypatch.setattr(attack, "probe_entangle", recording_probe)
        code, out = run_cli(
            capsys, "security", "attack-eval", "--attack", "probe:theta=0.8,d_eve=3",
            "--dim", "2", "--sweep", "2",
        )
        assert code == 0
        assert built == [(0.8, 3), (0.4, 3), (0.8, 3)]
        curve = json.loads(out)["report"]["curve"]
        assert [pt["theta"] for pt in curve] == [0.4, 0.8]

    @pytest.mark.parametrize("sweep, spec, message", [
        ("-3", "probe:theta=0.8", "--sweep must be 0 or more steps, not -3"),
        ("8", "intercept-resend", "attack 'intercept-resend' has no parameter to sweep"),
        ("8", "none", "attack 'none' has no parameter to sweep"),
        ("8", "file:{path}", "attack 'file:{path}' has no parameter to sweep"),
    ], ids=["negative", "intercept-resend", "none", "file"])
    def test_attack_eval_sweep_refused(self, tmp_path, capsys, sweep, spec, message):
        path = tmp_path / "attack.json"
        attack.save_attack(attack.identity_attack(2), path)
        code = cli.main(["security", "attack-eval", "--attack", spec.format(path=path),
                         "--dim", "2", "--sweep", sweep])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: {message.format(path=path)}\n"

    def test_attack_eval_sweep_over_budget(self, tmp_path, capsys, monkeypatch):
        def refuse(*_args):
            raise AssertionError("evaluated despite the sweep budget")

        monkeypatch.setattr(attack, "evaluate_attack", refuse)
        out_path = tmp_path / "eval.json"
        code = cli.main(["security", "attack-eval", "--attack", "probe:theta=0.8", "--dim", "2",
                         "--sweep", "1000000000", "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and not out_path.exists()
        assert captured.err == ("error: sweep too large: 1000000000 steps of 6 grid points, "
                                f"budget {bases.MAX_SWEEP_POINTS} points\n")

    def test_attack_eval_sweep_budget_is_inclusive(self, capsys, monkeypatch):
        # 8 steps of the (k*d)**n = 6 grid points at d=2, n=1 fill a budget of 48 exactly
        monkeypatch.setattr(bases, "MAX_SWEEP_POINTS", 48)
        argv = ["security", "attack-eval", "--attack", "probe:theta=0.8", "--dim", "2", "--sweep"]
        assert cli.main(argv + ["8"]) == 0
        assert len(json.loads(capsys.readouterr().out)["report"]["curve"]) == 8
        assert cli.main(argv + ["9"]) == 2

    @pytest.mark.parametrize("spec", ["source-replace:eps=inf", "probe:theta=nan",
                                      "probe:theta=-inf"])
    @pytest.mark.parametrize("command", ["attack-eval", "run"])
    def test_non_finite_attack_parameter(self, tmp_path, capsys, strategy_file, command, spec):
        out_path = tmp_path / "out.json"
        argv = (["security", "attack-eval", "--dim", "2"] if command == "attack-eval" else
                ["run", "--strategy", str(strategy_file), "--rounds", "2", "--seed", "1"])
        code = cli.main(argv + ["--attack", spec, "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and not out_path.exists()
        key, _, value = spec.partition(":")[2].partition("=")
        assert captured.err == f"error: attack parameter {key} must be finite, not {value!r}\n"

    def test_attack_eval_unknown_parameter(self, capsys):
        code = cli.main(["security", "attack-eval", "--attack", "probe:thetta=0.3", "--dim", "2"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "attack 'probe' takes no parameter 'thetta'" in captured.err

    def test_attack_eval_block_length_mismatch(self, tmp_path, capsys):
        # the file's block length decides what is evaluated, so another --n is refused
        path = tmp_path / "attack_n1.json"
        attack.save_attack(attack.intercept_resend(bases.gen_mub(2), 0, n=1), path)
        out_path = tmp_path / "report.json"
        code = cli.main(["security", "attack-eval", "--dim", "2", "--n", "3",
                         "--attack", f"file:{path}", "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and not out_path.exists()
        assert captured.err == "error: attack block length 1 differs from --n 3\n"
        code = cli.main(["security", "attack-eval", "--dim", "2", "--n", "1",
                         "--attack", f"file:{path}", "--out", str(out_path)])
        assert code == 0 and out_path.exists()

    def test_attack_eval_dimension_mismatch(self, tmp_path, capsys):
        path = tmp_path / "attack_d2.json"
        attack.save_attack(attack.identity_attack(2), path)
        code = cli.main(["security", "attack-eval", "--dim", "3", "--attack", f"file:{path}"])
        captured = capsys.readouterr()
        assert code == 1
        assert "strategy and attack dimensions differ" in captured.err


class TestMalformedFiles:
    """A strategy or attack file of the wrong shape exits 1 with a message."""

    @pytest.mark.parametrize("shape", ["kraus-number", "json-list"])
    def test_attack_file(self, tmp_path, capsys, shape):
        path = tmp_path / "attack.json"
        attack.save_attack(attack.identity_attack(2), path)
        data = json.loads(path.read_text())
        data = {**data, "kraus": 5} if shape == "kraus-number" else [data]
        path.write_text(json.dumps(data))
        code = cli.main(["security", "attack-eval", "--attack", f"file:{path}"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: bad attack file") and "Traceback" not in err

    def test_strategy_entries_number(self, tmp_path, capsys, v1_strategy_file):
        data = json.loads(v1_strategy_file.read_text())
        data["entries"] = 7
        bad = tmp_path / "bad_strategy.json"
        bad.write_text(json.dumps(data))
        code = cli.main(["run", "--strategy", str(bad), "--rounds", "10", "--seed", "1",
                         "--out", str(tmp_path / "t.jsonl")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: bad strategy file") and "Traceback" not in err

    @pytest.mark.parametrize("source", ["product", "d3", "scaled"])
    def test_strategy_foreign_omega(self, tmp_path, capsys, v1_strategy_file, source):
        # every computation assumes the maximally entangled source, so a file naming
        # another one is refused, not silently analysed as if it held omega(d)
        data = json.loads(v1_strategy_file.read_text())
        data["omega"] = {"product": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                         "d3": complex_to_pairs(retrodiction.omega(3)),
                         "scaled": [[v * (1 + 1e-8), w] for v, w in data["omega"]]}[source]
        bad = tmp_path / "foreign_omega.json"
        bad.write_text(json.dumps(data))
        code = cli.main(["security", "attack-eval", "--attack", "none", "--strategy", str(bad)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (f"error: bad strategy file {bad}: omega is not the maximally "
                                "entangled state of dimension 2\n")

    @pytest.mark.parametrize("defect, message", [
        ("x-length", "entry 1 of 8 is not guessing function 1"),
        ("x-digit", "entry 1 of 8 is not guessing function 1"),
        ("x-repeated", "entry 1 of 8 is not guessing function 1"),
        ("eta-size", "does not have 4 entries"),
    ])
    def test_strategy_guessing_function(self, tmp_path, capsys, v1_strategy_file, defect, message):
        data = json.loads(v1_strategy_file.read_text())
        entry = data["entries"][1]
        if defect == "x-length":
            entry["x"] = [0, 0]
        elif defect == "x-digit":
            entry["x"] = [5, 0, 0]
        elif defect == "x-repeated":
            entry["x"] = data["entries"][0]["x"]
        else:
            entry["eta"] = entry["eta"][:3]
        bad = tmp_path / "bad_strategy.json"
        bad.write_text(json.dumps(data))
        out_path = tmp_path / "t.jsonl"
        code = cli.main(["run", "--strategy", str(bad), "--rounds", "2000", "--seed", "1",
                         "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and not out_path.exists()
        assert captured.err.startswith("error: bad strategy file") and message in captured.err

    @pytest.mark.parametrize("defect, message", [
        ("swapped", "entry 3 of 8 is not guessing function 3"),
        ("dropped", "entry 4 of 7 is not guessing function 4"),
        ("dropped-last", "entry 7 of 7 is not guessing function 7"),
        ("repeated", "entry 6 of 8 is not guessing function 6"),
        ("repeated-inserted", "entry 6 of 9 is not guessing function 6"),
        ("appended", "entry 8 of 9 is not guessing function 8"),
    ])
    def test_strategy_entries_in_order(self, tmp_path, capsys, v1_strategy_file, defect, message):
        # entry j is guessing function j, so a reordered or partial table is refused at
        # the first entry out of place, wherever it is read
        data = json.loads(v1_strategy_file.read_text())
        entries = data["entries"]
        if defect == "swapped":
            entries[3], entries[5] = entries[5], entries[3]
        elif defect == "dropped":
            del entries[4]
        elif defect == "dropped-last":
            del entries[7]
        elif defect == "repeated":
            entries[6] = entries[5]
        elif defect == "repeated-inserted":
            entries.insert(6, entries[5])
        else:
            entries.append(entries[0])
        bad = tmp_path / "bad_strategy.json"
        bad.write_text(json.dumps(data))
        out_path = tmp_path / "out.json"
        for argv in (["run", "--strategy", str(bad), "--rounds", "10", "--seed", "1"],
                     ["security", "lemma", "--strategy", str(bad)],
                     ["security", "attack-eval", "--attack", "none", "--strategy", str(bad)]):
            code = cli.main(argv + ["--out", str(out_path)])
            captured = capsys.readouterr()
            assert code == 1 and captured.out == "" and not out_path.exists()
            assert captured.err.startswith(f"error: bad strategy file {bad}: {message}:")
            assert captured.err.count("\n") == 1


class TestNonFiniteNumbers:
    """A NaN or infinite number in a basis, strategy or attack file exits 1 with a message.

    Python's ``json`` reads ``NaN``, ``Infinity`` and an overflowing ``1e400``;
    NaN fails every ``value > tol`` comparison, so unchecked it would pass
    every tolerance check downstream.
    """

    SENTINEL = 12345.678

    @pytest.fixture()
    def attack_file(self, tmp_path):
        path = tmp_path / "attack.json"
        attack.save_attack(attack.intercept_resend(bases.gen_mub(2), 0), path)
        return path

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e400"])
    @pytest.mark.parametrize("target", ["bases", "strategy-eta", "strategy-p", "strategy-residual",
                                        "strategy2-generators", "strategy2-weights",
                                        "strategy2-weightlist", "attack-psi", "attack-kraus"])
    def test_refused(self, tmp_path, capsys, bases_file, strategy_file, v1_strategy_file,
                     attack_file, target, value):
        # "strategy" targets a v1 file, "strategy2" a v2 file
        source = {"bases": bases_file, "strategy": v1_strategy_file, "strategy2": strategy_file,
                  "attack": attack_file}
        data = json.loads(source[target.split("-")[0]].read_text())
        if target == "bases":
            data["bases"][1][0][1][0] = self.SENTINEL
        elif target == "strategy-eta":
            data["entries"][3]["eta"][2][1] = self.SENTINEL
        elif target == "strategy2-generators":
            data["generators"][1][0][2][1] = self.SENTINEL
        elif target == "strategy2-weights":
            data["weights"] = self.SENTINEL
        elif target == "strategy2-weightlist":
            data["weights"] = [data["weights"]] * 3 + [self.SENTINEL] + [data["weights"]] * 4
        elif target.startswith("strategy"):
            data["entries"][3][target.split("-")[1]] = self.SENTINEL
        elif target == "attack-psi":
            data["psi_abe"][0][0] = self.SENTINEL
        else:
            data["kraus"][1][0][1][1] = self.SENTINEL
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data).replace(str(self.SENTINEL), value))
        out_path = tmp_path / "out.json"
        commands = {
            "bases": [["bases", "check", "--in", str(bad)],
                      ["strategy", "build", "--bases", str(bad), "--out", str(out_path)]],
            "strategy": [["run", "--strategy", str(bad), "--rounds", "10", "--seed", "1",
                          "--out", str(out_path)],
                         ["security", "lemma", "--strategy", str(bad)],
                         ["security", "attack-eval", "--attack", "none", "--strategy", str(bad)]],
            "attack": [["security", "attack-eval", "--attack", f"file:{bad}"],
                       ["run", "--strategy", str(strategy_file), "--attack", f"file:{bad}",
                        "--rounds", "10", "--seed", "1", "--out", str(out_path)]],
        }[target.split("-")[0].rstrip("2")]
        for argv in commands:
            code = cli.main(argv)
            captured = capsys.readouterr()
            assert code == 1, argv
            assert captured.out == "" and not out_path.exists()
            assert captured.err.startswith("error: bad ") and "not finite" in captured.err
            assert "Traceback" not in captured.err


class TestOverflowingNumbers:
    """A finite number too large to compute with exits 1 or 2 with a message, warning nothing."""

    @pytest.mark.parametrize("target, value, code, message", [
        ("bases-entry", 1e200, 1, "not finite or above 1e+06"),
        ("bases-dim", "Infinity", 1, "dim must be an integer >= 1, not inf"),
        ("strategy-x", 2**70, 1, "entry 3 of 8 is not guessing function 3"),
        ("strategy-eta", 1e200, 2, "violates completeness by inf"),
        ("strategy2-weights", 1e200, 2, "violates completeness by 8.000e+200"),
        ("strategy2-generators", 1e200, 2, "violates completeness by nan"),
        ("attack-psi", 1e200, 1, "source state norm inf"),
        ("attack-kraus", 1e200, 1, "not trace preserving (deviation inf)"),
        ("attack-d", "Infinity", 1, "d must be an integer >= 2, not inf"),
    ])
    def test_refused(self, tmp_path, capsys, bases_file, strategy_file, v1_strategy_file, target,
                     value, code, message):
        kind, field = target.split("-")
        if kind == "attack":
            path = tmp_path / "attack.json"
            attack.save_attack(attack.intercept_resend(bases.gen_mub(2), 0), path)
        else:
            path = {"bases": bases_file, "strategy": v1_strategy_file,
                    "strategy2": strategy_file}[kind]
        kind = kind.rstrip("2")
        data = json.loads(path.read_text())
        if field == "generators":
            data["generators"][1][0][0][0] = value
        elif field == "entry":
            data["bases"][1][0][1][0] = value
        elif field == "x":
            data["entries"][3]["x"][0] = value
        elif field == "eta":
            data["entries"][3]["eta"][0][0] = value
        elif field == "psi":
            data["psi_abe"][0][0] = value
        elif field == "kraus":
            data["kraus"][1][0][1][1] = value
        else:
            data[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data).replace('"Infinity"', "Infinity"))
        argv = {"bases": ["bases", "check", "--in", str(bad)],
                "strategy": ["security", "lemma", "--strategy", str(bad)],
                "attack": ["security", "attack-eval", "--attack", f"file:{bad}"]}[kind]
        assert cli.main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert message in captured.err and captured.err.count("\n") == 1


class TestAttackBudget:
    """An attack over the block budget, d**(2n) * d_eve <= 4096, exits 2 before allocating.

    An honest run has no block to budget; ``--n 10000000`` is over the instance budget
    instead, rounds*n <= 2**24, and also exits 2 before any draw.
    """

    @pytest.mark.parametrize("n, spec", [(2000, "intercept-resend:b=1"), (10_000_000, "none")])
    @pytest.mark.parametrize("command", ["attack-eval", "run"])
    def test_exits_2_at_once(self, tmp_path, capsys, strategy_file, monkeypatch, command, n, spec):
        def refuse(*_args, **_kwargs):
            raise AssertionError("allocated despite the attack budget")

        for module, name in ((attack, "omega"), (attack, "phi_product"), (protocol, "_sample")):
            monkeypatch.setattr(module, name, refuse)
        out_path = tmp_path / "out.json"
        if command == "run":
            argv = ["run", "--strategy", str(strategy_file), "--rounds", "2", "--seed", "1"]
        else:
            argv = ["security", "attack-eval", "--dim", "2"]
        start = time.perf_counter()
        code = cli.main(argv + ["--n", str(n), "--attack", spec, "--out", str(out_path)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and not out_path.exists()
        if (command, spec) == ("run", "none"):
            assert captured.err.startswith(f"error: run too large: 2 rounds of {n} instances")
        else:
            assert f"block dimension 2**(2*{n})*1 exceeds budget 4096" in captured.err
        if (command, spec) == ("attack-eval", "none"):
            # refused before anything is sized by n, such as the sweep's (k*d)**n grid
            assert elapsed < 1.0


def test_run_over_instance_budget_exits_2(tmp_path, capsys, strategy_file, monkeypatch):
    def refuse(*_args):
        raise AssertionError("sampled despite the instance budget")

    monkeypatch.setattr(protocol, "_sample", refuse)
    out_path = tmp_path / "t.jsonl"
    code = cli.main(["run", "--strategy", str(strategy_file), "--rounds",
                     str(bases.MAX_ARRAY_ENTRIES + 1), "--seed", "1", "--out", str(out_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and not out_path.exists()
    assert captured.err.startswith("error: run too large: 16777217 rounds")


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


class TestTolerances:
    """A tolerance from --tol, --residual-tol or MEANKING_TOL must be a number in (0, 1)."""

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1", "abc", "1", "1e300"])
    @pytest.mark.parametrize("command", ["bases gen", "bases check", "strategy build",
                                         "security lemma", "env bases gen", "env security lemma"])
    def test_refused(self, tmp_path, capsys, bases_file, monkeypatch, command, value):
        out_path = tmp_path / "out.json"
        argv = {
            "bases gen": ["bases", "gen", "--dim", "2", "--out", str(out_path)],
            "bases check": ["bases", "check", "--in", str(bases_file)],
            "strategy build": ["strategy", "build", "--bases", str(bases_file),
                               "--out", str(out_path), "--residual-tol", value],
            "security lemma": ["security", "lemma", "--out", str(out_path)],
        }[command.removeprefix("env ")]
        if command.startswith("env "):
            monkeypatch.setenv("MEANKING_TOL", value)
        elif command != "strategy build":
            argv += ["--tol", value]
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and not out_path.exists()
        assert captured.err.count("\n") == 1
        assert captured.err.endswith(f"must be a number above 0 and below 1, not {value!r}\n")

    def test_bad_environment_tolerance_is_one_line(self, tmp_path, bases_file):
        # the tolerance is parsed inside main, so even the parser's default gives no traceback
        src = str(Path(meanking.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "meanking.cli", "bases", "check", "--in", str(bases_file)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path, "MEANKING_TOL": "abc"},
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == ("meanking bases check: error: argument --tol: "
                               "must be a number above 0 and below 1, not 'abc'\n")

    def test_environment_tolerance_only_reaches_tol(self, tmp_path, capsys, strategy_file,
                                                    monkeypatch):
        argv = ["run", "--strategy", str(strategy_file), "--rounds", "50", "--seed", "3",
                "--out", str(tmp_path / "t.jsonl")]
        plain = run_cli(capsys, *argv)
        monkeypatch.setenv("MEANKING_TOL", "abc")
        assert run_cli(capsys, *argv) == plain and plain[0] == 0

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_json_refuses_non_finite(self, tmp_path, value):
        with pytest.raises(ValueError):
            canonical_dumps({"x": value})
        path = tmp_path / "out.json"
        with pytest.raises(ValueError):
            write_json(path, {"x": [1.0, value]})
        assert not path.exists()


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

    def test_version_matches_pyproject(self, capsys):
        # manifests record meanking.__version__; pyproject.toml repeats it
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        version = tomllib.loads(pyproject.read_text())["project"]["version"]
        assert cli.main(["--version"]) == 0
        assert capsys.readouterr().out == f"meanking {version}\n"

    def test_test_only_routes_are_gone(self):
        # tests reach what these did through tests/oracles.py or inline expressions
        removed = {
            qmath: ["partial_trace", "dagger"],
            protocol: ["_born_rows"],
            bases: ["check_orthonormal", "check_unbiased", "pairwise_flat"],
            attack: ["entangled_basis_vector", "eve_final_state", "guess_probability",
                     "bob_projected_state", "apply_feedback", "trace_distance", "scalar_deviation",
                     "source_from_coefficients", "decompose_source", "weyl_operators",
                     "phi_hat_product", "_projected_raw", "_eve_blocks", "_frame_walk",
                     "_blocks"],
            retrodiction: ["decomposition_triple", "phi_hat"],
            retrodiction.Strategy: ["safe_vector", "weight"],
            retrodiction.ProductStrategy: ["safe_vector"],
            # the Weyl-sector engine; tests/oracles.py keeps the sector labels
            security: ["_WeylLayout", "_weyl_layout", "_to_weyl", "_from_weyl", "_blocks"],
        }
        assert [f"{owner.__name__}.{name}" for owner, names in removed.items()
                for name in names if hasattr(owner, name)] == []
        assert not hasattr(meanking, "tensor_strategy")
        assert importlib.util.find_spec("meanking.schemas") is None  # now tests/schemas.py

    def test_mub_pipeline_loads_no_scipy(self, tmp_path):
        # the LPs are fallbacks for non-MUB sets; scipy must load only with them
        script = (
            "import json, sys\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
            "import meanking.cli\n"
            "after_import = scipy_modules()\n"
            "codes = [meanking.cli.main(['bases', 'gen', '--dim', '3', '--out', 'b3.json']),\n"
            "         meanking.cli.main(['strategy', 'build', '--bases', 'b3.json',\n"
            "                            '--out', 's3.json']),\n"
            "         meanking.cli.main(['run', '--strategy', 's3.json', '--rounds', '100',\n"
            "                            '--seed', '1', '--out', 't.jsonl'])]\n"
            "print(json.dumps([after_import, codes, scipy_modules()]))\n"
        )
        src = str(Path(meanking.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path,
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        after_import, codes, after_pipeline = json.loads(proc.stdout.splitlines()[-1])
        assert after_import == []
        assert codes == [0, 0, 0]
        assert after_pipeline == []


class TestDimension7:
    """d=7 builds in closed form: attack-eval at n=1 and the lemma run; what lists 7**8
    functions exits 2."""

    def test_oracle_formula(self, strategy_d2, strategy_d3):
        # intercept-resend on d+1 MUBs is detected with probability (d-1)**2 / (d(d+1))
        for d, s in ((2, strategy_d2), (3, strategy_d3)):
            assert abs(intercept_resend_detection(s, 0) - (d - 1) ** 2 / (d * (d + 1))) < 1e-12

    def test_attack_eval(self, capsys):
        code, out = run_cli(capsys, "security", "attack-eval", "--attack", "intercept-resend:b=1",
                            "--dim", "7")
        assert code == 0
        report = json.loads(out)["report"]
        assert abs(report["detection_probability"] - 36 / 56) < 1e-12
        assert abs(report["leakage"] - 1.0) < 1e-12
        assert len(report["per_outcome"]) == 56

    def test_lemma(self, capsys):
        # in closed form from the 56 x 56 generator Gram, with no 7**8 table
        code, out = run_cli(capsys, "security", "lemma", "--dim", "7")
        report = json.loads(out)["report"]
        assert code == 0 and report["solution_dim"] == 1 and report["constraint_rank"] == 2400
        assert report["spectral_gap"] == pytest.approx(6 / 7, abs=1e-12)
        assert report["witness_identity_deviation"] == 0.0

    def test_lemma_refused(self, capsys, monkeypatch):
        # the enumerated route, with the closed form's gate off, must list the 7**8
        monkeypatch.setattr(security, "_closed_form", lambda *_args: None)
        code = cli.main(["security", "lemma", "--dim", "7"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "7**8 = 5764801 guessing functions exceed the enumeration budget" in captured.err
