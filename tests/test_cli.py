import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import meanking
from meanking import attack, bases, cli, protocol, retrodiction, security
from meanking.serialize import file_digest
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

    def test_check_classical_model_over_budget(self, tmp_path, capsys):
        # 18 repeats of the d=2 MUBs are not pairwise flat, and their
        # classical-model LP would have 2**18 variables
        mub = bases.gen_mub(2).bases
        repeats = bases.BasisSet(2, tuple(bases.Basis(b, mub[b % 3].vectors) for b in range(18)))
        path = tmp_path / "repeats.json"
        bases.save_basis_set(repeats, path)
        code = cli.main(["bases", "check", "--in", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "262144 variables exceeds the supported size" in captured.err

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

    def test_build_over_budget(self, tmp_path, capsys):
        path = tmp_path / "b7.json"
        bases.save_basis_set(bases.gen_mub(7), path)
        code = cli.main(["strategy", "build", "--bases", str(path),
                         "--out", str(tmp_path / "s7.json")])
        assert code == 2
        assert "exceed the build budget" in capsys.readouterr().err
        assert not (tmp_path / "s7.json").exists()

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

    @pytest.mark.parametrize("spec", ["intercept-resend:bb=1", "none:b=1"])
    def test_unknown_attack_parameter(self, tmp_path, capsys, strategy_file, spec):
        code = cli.main(["run", "--strategy", str(strategy_file), "--rounds", "10",
                         "--seed", "1", "--attack", spec, "--out", str(tmp_path / "t.jsonl")])
        assert code == 1
        assert "takes no parameter" in capsys.readouterr().err

    def test_sampler_over_budget(self, tmp_path, capsys, strategy_d3, monkeypatch):
        def refuse(*_args):
            raise AssertionError("Born rows built despite the budget")

        monkeypatch.setattr(protocol, "_born_rows", refuse)
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
        # d=5 is decided by its 625 x 625 form; on MUBs the margin is 1 - 1/d
        code, out = run_cli(capsys, "security", "lemma", "--dim", str(dim), "--n", str(n))
        assert code == 0
        report = json.loads(out)["report"]
        assert report["solution_dim"] == 1 and report["constraint_rank"] == rank
        assert report["witness_identity_deviation"] < 1e-8
        assert report["spectral_gap"] == pytest.approx(1 - 1 / dim, abs=1e-9)

    def test_lemma_over_budget(self, tmp_path, capsys, monkeypatch):
        # the budget bounds the single-block form, 256 entries at d=2, for every n
        monkeypatch.setattr(security, "MAX_CONSTRAINT_ENTRIES", 255)
        out_path = tmp_path / "lemma.json"
        code = cli.main(["security", "lemma", "--dim", "2", "--n", "2", "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "commutant check too large" in captured.err
        assert not out_path.exists()

    def test_lemma_over_block_budget(self, tmp_path, capsys):
        # d**(2n) over retrodiction.MAX_BLOCK_DIM is refused before d**(4n) is formed
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

    def test_attack_eval_unknown_parameter(self, capsys):
        code = cli.main(["security", "attack-eval", "--attack", "probe:thetta=0.3", "--dim", "2"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "attack 'probe' takes no parameter 'thetta'" in captured.err

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

    def test_strategy_entries_number(self, tmp_path, capsys, strategy_file):
        data = json.loads(strategy_file.read_text())
        data["entries"] = 7
        bad = tmp_path / "bad_strategy.json"
        bad.write_text(json.dumps(data))
        code = cli.main(["run", "--strategy", str(bad), "--rounds", "10", "--seed", "1",
                         "--out", str(tmp_path / "t.jsonl")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: bad strategy file") and "Traceback" not in err

    @pytest.mark.parametrize("defect, message", [
        ("x-length", "does not have k = 3 digits"),
        ("x-digit", "digit outside 0..1"),
        ("x-repeated", "listed twice"),
        ("eta-size", "does not have 4 entries"),
    ])
    def test_strategy_guessing_function(self, tmp_path, capsys, strategy_file, defect, message):
        data = json.loads(strategy_file.read_text())
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
                                        "attack-psi", "attack-kraus"])
    def test_refused(self, tmp_path, capsys, bases_file, strategy_file, attack_file, target, value):
        source = {"bases": bases_file, "strategy": strategy_file, "attack": attack_file}
        data = json.loads(source[target.split("-")[0]].read_text())
        if target == "bases":
            data["bases"][1][0][1][0] = self.SENTINEL
        elif target == "strategy-eta":
            data["entries"][3]["eta"][2][1] = self.SENTINEL
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
        }[target.split("-")[0]]
        for argv in commands:
            code = cli.main(argv)
            captured = capsys.readouterr()
            assert code == 1, argv
            assert captured.out == "" and not out_path.exists()
            assert captured.err.startswith("error: bad ") and "not finite" in captured.err
            assert "Traceback" not in captured.err


class TestAttackBudget:
    """An attack over d**(2n) * d_eve <= MAX_BLOCK_DIM exits 2 before anything is allocated."""

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
        code = cli.main(argv + ["--n", str(n), "--attack", spec, "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and not out_path.exists()
        assert f"block dimension 2**(2*{n})*1 exceeds budget 4096" in captured.err


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
