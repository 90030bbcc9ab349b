"""Spans and counters recorded from outside the meanking package.

A :class:`Tracer` replaces public functions of the package modules with
wrappers that record a span (name, start, end, parent span) or bump a
counter, then calls the original. The package source is never edited: the
wrappers are installed by rebinding module attributes, in the defining
module and in every other meanking module that imported the same function
object by name, and :meth:`Tracer.uninstall` puts the originals back.

Spans are kept in memory; :func:`summarize` turns them into per-span totals,
call counts and per-layer self time (a span's duration minus the time its
direct child spans cover).
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("import", "cli", "serialize", "bases", "retrodiction", "qmath",
          "protocol", "attack", "security")

# spans whose work is file I/O belong to the serialize layer, whatever
# module defines them
_SERIALIZE_SPANS = {
    "protocol.save_transcript",
    "protocol.load_transcript",
    "retrodiction.save_strategy",
    "retrodiction.load_strategy",
}


def layer_of(span_name: str) -> str:
    if span_name in _SERIALIZE_SPANS:
        return "serialize"
    return span_name.split(".", 1)[0]


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _run_protocol_name(args, kwargs):
    attacked = _arg(args, kwargs, 2, "attack") is not None
    return "protocol.run_protocol_attacked" if attacked else "protocol.run_protocol_honest"


def _grid_points(args, kwargs, _result):
    strategy, am = _arg(args, kwargs, 0, "strategy"), _arg(args, kwargs, 1, "am")
    return {"attack.grid_points": (strategy.basis_set.k * strategy.d) ** am.n}


def _lp_vars(args, kwargs, _result):
    bs = _arg(args, kwargs, 0, "bs")
    return {"bases.lp_vars": bs.dim**bs.k}


def _lp_ub_bytes(args, kwargs, _result):
    # the max-min LP in qmath.lp_feasible builds a dense float64 A_ub of
    # nx rows by nx + 1 columns; computed from the shapes, not measured
    nx = len(_arg(args, kwargs, 0, "safe_vectors"))
    return {"retrodiction.lp_ub_bytes": nx * (nx + 1) * 8}


def _guessing_functions(_args, _kwargs, result):
    return {"retrodiction.guessing_functions": len(result.safe_vectors)}


def _instances(_args, _kwargs, result):
    return {"protocol.instances": len(result.records)}


def _transcript_bytes(args, kwargs, _result):
    return {"protocol.transcript_bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _constraint_rows(_args, _kwargs, result):
    return {"security.constraint_rows": int(result.shape[0])}


# (module, attribute, span name or a function of the call's arguments,
#  counter function of (args, kwargs, result) or None)
TIMED = (
    ("serialize", "write_json", "serialize.write_json", None),
    ("serialize", "read_json", "serialize.read_json", None),
    ("serialize", "file_digest", "serialize.file_digest", None),
    ("protocol", "save_transcript", "protocol.save_transcript", _transcript_bytes),
    ("protocol", "load_transcript", "protocol.load_transcript", None),
    ("retrodiction", "save_strategy", "retrodiction.save_strategy", None),
    ("retrodiction", "load_strategy", "retrodiction.load_strategy", None),
    ("bases", "gen_mub", "bases.gen_mub", None),
    ("bases", "validate", "bases.validate", None),
    ("bases", "check_classical_model", "bases.check_classical_model", _lp_vars),
    ("bases", "check_nondegenerate", "bases.check_nondegenerate", None),
    ("retrodiction", "build_strategy", "retrodiction.build_strategy", _guessing_functions),
    ("retrodiction", "solve_safe_vector", "retrodiction.solve_safe_vector", None),
    ("retrodiction", "solve_povm_weights", "retrodiction.solve_povm_weights", _lp_ub_bytes),
    ("qmath", "lstsq", "qmath.lstsq", None),
    ("qmath", "lp_feasible", "qmath.lp_feasible", None),
    ("qmath", "nullspace", "qmath.nullspace", None),
    ("qmath", "matrix_rank", "qmath.matrix_rank", None),
    ("protocol", "run_protocol", _run_protocol_name, _instances),
    ("protocol", "sift_and_test", "protocol.sift_and_test", None),
    ("protocol", "agreement_rate", "protocol.agreement_rate", None),
    ("attack", "evaluate_attack", "attack.evaluate_attack", _grid_points),
    ("attack", "detection_probability", "attack.detection_probability", None),
    ("attack", "leakage", "attack.leakage", None),
    ("attack", "alice_state", "attack.alice_state", None),
    ("attack", "build_E_operators", "attack.build_E_operators", None),
    ("security", "product_commutant_check", "security.product_commutant_check", None),
    ("security", "eigenvector_constraint_dim", "security.eigenvector_constraint_dim", None),
)

# called too often to time without distorting the caller; counted only
COUNTED = (
    ("qmath", "hermitian_coords", "qmath.hermitian_coords", None),
    ("attack", "alice_state_unnormalized", "attack.alice_state_unnormalized", None),
    # private: every grid-point projection, including leakage's second pass
    ("attack", "_branch_vectors", "attack.branch_vectors", None),
    ("security", "constraint_matrix", None, _constraint_rows),
)

SPAN_NAMES = tuple(
    name for _, _, name, _ in TIMED if isinstance(name, str)
) + ("protocol.run_protocol_honest", "protocol.run_protocol_attacked")

COUNT_NAMES = (
    "protocol.transcript_bytes", "bases.lp_vars", "retrodiction.guessing_functions",
    "retrodiction.lp_ub_bytes", "qmath.hermitian_coords", "protocol.instances",
    "attack.alice_state_unnormalized", "attack.grid_points", "attack.branch_vectors",
    "security.constraint_rows",
)


class Tracer:
    """In-memory span and counter store plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._patched = []  # (module, attribute, original)

    @contextmanager
    def span(self, name: str):
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def _timed(self, fn, name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name(args, kwargs) if callable(name) else name):
                result = fn(*args, **kwargs)
            if counter is not None:
                self.counts.update(counter(args, kwargs, result))
            return result

        return wrapper

    def _counted(self, fn, name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if name is not None:
                self.counts[name] += 1
            if counter is not None:
                self.counts.update(counter(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded meanking module."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "meanking" or key.startswith("meanking."))]
        replace = {}
        for table, make in ((TIMED, self._timed), (COUNTED, self._counted)):
            for mod_name, attr, name, counter in table:
                original = getattr(sys.modules[f"meanking.{mod_name}"], attr)
                replace[id(original)] = (original, make(original, name, counter))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def summarize(dumps) -> dict:
    """Totals, call counts and per-layer self time over several span dumps."""
    total = Counter()
    calls = Counter()
    self_time = Counter()
    counts = Counter()
    for dump in dumps:
        spans = dump["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), inner in zip(spans, child_time):
            total[name] += end - start
            calls[name] += 1
            self_time[layer_of(name)] += (end - start) - inner
        counts.update(dump["counts"])
    return {"total": total, "calls": calls, "self": self_time, "counts": counts}
