"""``import meanking`` runs no package module; each loads on first use.

The checks that need a clean ``sys.modules`` run in a fresh interpreter.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import meanking
from meanking import bases, retrodiction

MODULES = ("qmath", "serialize", "bases", "retrodiction", "attack", "protocol", "security")

# every package-level name, with the module that defines it
NAMES = {
    "AttackModel": "attack", "detection_probability": "attack",
    "evaluate_attack": "attack", "leakage": "attack",
    "BasisSet": "bases", "gen_mub": "bases", "validate": "bases",
    "ProtocolConfig": "protocol", "agreement_rate": "protocol",
    "run_protocol": "protocol", "sift_and_test": "protocol",
    "Strategy": "retrodiction", "build_strategy": "retrodiction",
    "eigenvector_constraint_dim": "security", "product_commutant_check": "security",
}

# prints which of MODULES have run after `import meanking` and after `cli.main`
# of its arguments; a module not yet run still has the lazy loader's type
CHILD = f"""
import json, sys, types
def run():
    return [m for m in {MODULES!r} if type(sys.modules["meanking." + m]) is types.ModuleType]
import meanking
after_import = [run(), "numpy" in sys.modules]
import meanking.cli
code = meanking.cli.main(sys.argv[1:])
print(json.dumps([after_import, code, run()]))
"""


def _child(argv, cwd, script=CHILD):
    src = str(Path(meanking.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script, *argv], cwd=cwd, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, mub2, strategy_d2):
    cwd = tmp_path_factory.mktemp("lazy")
    bases.save_basis_set(mub2, cwd / "b2.json")
    retrodiction.save_strategy(strategy_d2, cwd / "s2.json")
    return cwd


BASE = ["qmath", "serialize", "bases"]

# each command, with the modules it runs
COMMANDS = {
    "bases gen": (["bases", "gen", "--dim", "2", "--out", "g.json"], BASE),
    "bases check": (["bases", "check", "--in", "b2.json"], BASE),
    "strategy build": (["strategy", "build", "--bases", "b2.json", "--out", "s.json"],
                       BASE + ["retrodiction"]),
    "security lemma": (["security", "lemma", "--dim", "2"], BASE + ["retrodiction", "security"]),
    "security attack-eval": (["security", "attack-eval", "--attack", "probe", "--dim", "2"],
                             BASE + ["retrodiction", "attack"]),
    # an honest run on uniform weights draws in closed form: it walks no attack
    "run": (["run", "--strategy", "s2.json", "--rounds", "50", "--seed", "1", "--out", "t.jsonl"],
            BASE + ["retrodiction", "protocol"]),
    "run attacked": (["run", "--strategy", "s2.json", "--rounds", "50", "--seed", "1",
                      "--attack", "intercept-resend:b=1", "--test-fraction", "0",
                      "--out", "t.jsonl"],
                     BASE + ["retrodiction", "attack", "protocol"]),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_command_runs_only_its_modules(inputs, command):
    argv, loaded = COMMANDS[command]
    proc = _child(argv, inputs)
    assert proc.returncode == 0, proc.stderr
    after_import, code, after_main = json.loads(proc.stdout.splitlines()[-1])
    assert after_import == [[], False]  # no package module and no numpy
    assert code == 0
    assert after_main == loaded


def test_refusal_runs_only_its_modules(tmp_path):
    # 18 copies of one d=2 basis: the classical-model LP would take 2**18 variables, over
    # budget, so `bases check` exits 2 without running any module past `bases`
    bs = bases.BasisSet(np.broadcast_to(np.eye(2), (18, 2, 2)))
    bases.save_basis_set(bs, tmp_path / "b18.json")
    proc = _child(["bases", "check", "--in", "b18.json"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.startswith("error: classical-model LP with 262144 variables exceeds")
    after_import, code, after_main = json.loads(proc.stdout.splitlines()[-1])
    assert after_import == [[], False]
    assert code == 2
    assert after_main == BASE


def test_missing_numpy_shows_at_first_use(tmp_path):
    script = (
        "import sys\n"
        "class NoNumpy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'numpy':\n"
        "            raise ModuleNotFoundError(f'No module named {name!r}', name=name)\n"
        "sys.meta_path.insert(0, NoNumpy())\n"
        "import meanking\n"
        "print('imported')\n"
        "try:\n"
        "    meanking.gen_mub\n"
        "except ModuleNotFoundError as exc:\n"
        "    print(exc.name)\n"
    )
    proc = _child([], tmp_path, script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["imported", "numpy"]


def test_package_names_are_the_defining_modules_objects():
    for name, module in NAMES.items():
        defining = importlib.import_module(f"meanking.{module}")
        assert getattr(meanking, name) is getattr(defining, name), name
    assert sorted(meanking.__all__) == sorted([*MODULES, *NAMES])
    assert set(meanking.__all__) <= set(dir(meanking))
    with pytest.raises(AttributeError, match="no attribute 'tensor_strategy'"):
        meanking.tensor_strategy


def test_failed_first_run_is_forgotten(tmp_path):
    # a module whose first run fails leaves sys.modules and the package, so a retry and
    # an import that needs it meet the real error again, not a half-run module
    script = (
        "import sys\n"
        "class NoNumpy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'numpy':\n"
        "            raise ModuleNotFoundError(f'No module named {name!r}', name=name)\n"
        "sys.meta_path.insert(0, NoNumpy())\n"
        "import meanking\n"
        "def show(use):\n"
        "    try:\n"
        "        use()\n"
        "    except Exception as exc:\n"
        "        print(type(exc).__name__, exc.name)\n"
        "show(lambda: meanking.gen_mub)\n"
        "print('meanking.bases' in sys.modules)\n"
        "show(lambda: meanking.gen_mub)\n"
        "show(lambda: __import__('meanking.cli'))\n"
        "show(lambda: meanking.bases.gen_mub)\n"
    )
    proc = _child([], tmp_path, script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == (["ModuleNotFoundError numpy", "False"]
                                        + ["ModuleNotFoundError numpy"] * 3)
