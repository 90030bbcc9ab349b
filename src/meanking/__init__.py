"""Numerical toolkit for Mean King retrodiction games and the two-way QKD
protocol built on them: basis-set construction and validation, safe-vector
strategies, protocol simulation, coherent-attack analysis and the
zero-detection / zero-leakage security checks.

``import meanking`` runs none of the package modules. Each of ``qmath``,
``serialize``, ``bases``, ``retrodiction``, ``attack``, ``protocol`` and
``security`` is registered in ``sys.modules`` and as a package attribute,
and its code runs on the first attribute access (``importlib.util.LazyLoader``).
The package-level names (``meanking.evaluate_attack``, ``meanking.gen_mub``, ...)
resolve the same way, on first access. So each CLI command loads only what
it runs: ``bases gen`` and ``bases check`` load ``bases``, ``qmath`` and
``serialize``; ``strategy build`` adds ``retrodiction``; ``security lemma``
adds ``retrodiction`` and ``security``; ``security attack-eval`` adds
``retrodiction`` and ``attack``; ``run`` adds ``retrodiction``, ``attack`` and
``protocol``. A missing numpy shows at that first use, not at import.
A module whose first run fails is taken out of ``sys.modules`` and the
package again, so a retry, or an import that needs it, repeats the real
error. ``LazyLoader`` locks a first load on Python 3.13 but not on 3.12.1 and older,
where a module first used from several threads at once should be touched
before they start.
"""

import importlib.util
import sys

__version__ = "0.13.0"

_MODULES = ("qmath", "serialize", "bases", "retrodiction", "attack", "protocol", "security")

_NAMES = {
    "AttackModel": "attack", "detection_probability": "attack",
    "evaluate_attack": "attack", "leakage": "attack",
    "BasisSet": "bases", "gen_mub": "bases", "validate": "bases",
    "ProtocolConfig": "protocol", "agreement_rate": "protocol",
    "run_protocol": "protocol", "sift_and_test": "protocol",
    "Strategy": "retrodiction", "build_strategy": "retrodiction",
    "eigenvector_constraint_dim": "security", "product_commutant_check": "security",
}

__all__ = [*_MODULES, *_NAMES]


class _Forgetful:
    """A module's loader that, when the module's first run fails, forgets the module.

    It takes the module out of ``sys.modules`` and the package before the
    error goes on, so that the next use runs it afresh and meets the real
    error again, not a half-run module.
    """

    def __init__(self, loader):
        self.loader = loader

    def __getattr__(self, name):
        return getattr(self.loader, name)

    def exec_module(self, module):
        try:
            self.loader.exec_module(module)
        except BaseException:
            name = module.__spec__.name
            if sys.modules.get(name) is module:
                del sys.modules[name]
            if globals().get(name.rpartition(".")[2]) is module:
                del globals()[name.rpartition(".")[2]]
            raise


def _register(name: str):
    """The module ``meanking.<name>``, put in ``sys.modules`` with its code not yet run."""
    fullname = f"{__name__}.{name}"
    if fullname in sys.modules:  # a reload of the package keeps the loaded modules
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(_Forgetful(spec.loader))
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


for _name in _MODULES:
    globals()[_name] = _register(_name)
del _name


def __getattr__(name: str):
    if name in _MODULES:  # forgotten after a failed first run: run it again
        return importlib.import_module(f"{__name__}.{name}")
    if name in _NAMES:
        return getattr(importlib.import_module(f"{__name__}.{_NAMES[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_NAMES})
