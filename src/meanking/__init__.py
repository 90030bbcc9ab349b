"""Numerical toolkit for Mean King retrodiction games and the two-way QKD
protocol built on them: basis-set construction and validation, safe-vector
strategies, protocol simulation, coherent-attack analysis and the
zero-detection / zero-leakage security checks."""

__version__ = "0.2.0"

from . import attack, bases, protocol, qmath, retrodiction, security  # noqa: F401
from .attack import AttackModel, detection_probability, evaluate_attack, leakage  # noqa: F401
from .bases import BasisSet, gen_mub, validate  # noqa: F401
from .protocol import ProtocolConfig, agreement_rate, run_protocol, sift_and_test  # noqa: F401
from .retrodiction import Strategy, build_strategy, tensor_strategy  # noqa: F401
from .security import eigenvector_constraint_dim, product_commutant_check  # noqa: F401
