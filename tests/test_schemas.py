import json

import jsonschema
import pytest

import schemas
from meanking import attack as atk, bases, cli, protocol as proto, retrodiction as rd


def _integer(_checker, value):
    return type(value) is int  # the loaders' integer rule: never 2.0, and never true


def check(instance, schema):
    """Validate under the schema's draft, with ``integer`` as strict as the loaders."""
    base = jsonschema.validators.validator_for(schema)
    strict = jsonschema.validators.extend(
        base, type_checker=base.TYPE_CHECKER.redefine("integer", _integer))
    strict.check_schema(schema)
    strict(schema).validate(instance)


class TestFileSchemas:
    def test_basis_set_file(self, tmp_path, mub3):
        path = tmp_path / "b.json"
        bases.save_basis_set(mub3, path)
        check(json.loads(path.read_text()), schemas.BASIS_SET)

    def test_strategy_file(self, tmp_path, strategy_d2, unit_strategy, v1_files):
        path = tmp_path / "s.json"
        rd.save_strategy(strategy_d2, path)
        check(json.loads(path.read_text()), schemas.STRATEGY_V2)
        rd.save_strategy(unit_strategy, path)  # a strategy given as its table
        check(json.loads(path.read_text()), schemas.STRATEGY)
        for v1 in v1_files.values():
            check(json.loads(v1.read_text()), schemas.STRATEGY)

    def test_attack_file(self, tmp_path, mub2):
        path = tmp_path / "a.json"
        atk.save_attack(atk.intercept_resend(mub2, 1), path)
        check(json.loads(path.read_text()), schemas.ATTACK)

    def test_transcript_lines(self, tmp_path, strategy_d2):
        cfg = proto.ProtocolConfig(d=2, n=1, rounds=40, test_fraction=0.2, seed=1)
        t = proto.run_protocol(cfg, strategy_d2)
        path = tmp_path / "t.jsonl"
        proto.save_transcript(t, path)
        lines = path.read_text().splitlines()
        check(json.loads(lines[0]), schemas.TRANSCRIPT_HEADER)
        for line in lines[1:]:
            check(json.loads(line), schemas.TRANSCRIPT_RECORD)

    def test_schema_rejects_wrong_shape(self):
        with pytest.raises(jsonschema.ValidationError):
            check({"dim": 2}, schemas.BASIS_SET)

    def test_integral_float_is_no_integer(self, tmp_path, v1_files):
        # python-jsonschema counts 0.0 as an integer; the loaders, and so ``check``, do not
        data = json.loads(v1_files[2].read_text())
        data["entries"][0]["x"][0] = 0.0
        jsonschema.validate(instance=data, schema=schemas.STRATEGY)
        with pytest.raises(jsonschema.ValidationError, match="0.0 is not of type 'integer'"):
            check(data, schemas.STRATEGY)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        with pytest.raises(bases.FormatError, match="x must be a list of integers"):
            rd.load_strategy(path)


class TestCliPayloadSchemas:
    def run(self, capsys, *argv):
        code = cli.main(list(argv))
        return code, json.loads(capsys.readouterr().out)

    def test_bases_commands(self, tmp_path, capsys):
        path = tmp_path / "b.json"
        code, payload = self.run(capsys, "bases", "gen", "--dim", "2", "--out", str(path))
        assert code == 0
        check(payload, schemas.CLI_OUTPUT)
        check(payload["report"], schemas.VALIDATION_REPORT)
        _, payload = self.run(capsys, "bases", "check", "--in", str(path))
        check(payload["report"], schemas.VALIDATION_REPORT)

    def test_run_and_security_commands(self, tmp_path, capsys):
        bpath, spath = tmp_path / "b.json", tmp_path / "s.json"
        assert self.run(capsys, "bases", "gen", "--dim", "2", "--out", str(bpath))[0] == 0
        assert self.run(
            capsys, "strategy", "build", "--bases", str(bpath), "--out", str(spath)
        )[0] == 0
        code, payload = self.run(
            capsys, "run", "--strategy", str(spath), "--rounds", "50",
            "--seed", "2", "--out", str(tmp_path / "t.jsonl"),
        )
        assert code == 0
        check(payload, schemas.CLI_OUTPUT)
        check(payload["report"], schemas.RUN_SUMMARY)
        code, payload = self.run(capsys, "security", "lemma", "--dim", "2", "--n", "1")
        assert code == 0
        check(payload["report"], schemas.COMMUTANT_REPORT)
        code, payload = self.run(
            capsys, "security", "attack-eval", "--attack", "probe:theta=0.4",
            "--dim", "2", "--sweep", "2",
        )
        assert code == 0
        check(payload["report"], schemas.ATTACK_REPORT)
