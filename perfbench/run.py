"""The meanking benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size smoke]

Workloads (see perfbench/NOTES.md for why each was chosen):

- ``cli-pipeline``: the README pipeline, every step a fresh process.
- ``protocol-sim``: four protocol runs with sift, agreement, save and load.
- ``exact-analysis``: validation, strategy solves, exact attack
  enumeration and the commutant lemma, in-process.

A run builds the workload's inputs in-process, computes the references and
runs passes of the workload until ``--seconds`` of passes are used up.
Between the passes it times the set-up in several fresh interpreters.
Every operation is checked against its reference; one that raises, exits
with an unexpected code or fails a check counts as failed. Times in the
metrics are calibrated to a reference machine speed (``calib.py``); the
detail line also holds the wall times.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and the last line holds
the per-layer metrics of the traced passes plus the tracing overhead. The
line before it holds the details: every named metric with its unit, sample
count and tail percentile, machine facts and every failure.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import proc
import tracing

HERE = Path(__file__).resolve().parent
WORK_ROOT = proc.ROOT / ".perfbench_work"
SETUP_SAMPLES = {"full": 5, "smoke": 1}
HARD_LIMIT_S = 140.0  # the whole run must end well inside 180 s
HELD_OUT_SEED = 9091  # not used while tuning; for checking claims


def _stats(values, unit: str, tail: str = "high") -> dict:
    """Median plus the furthest tail percentile with >= 10 samples beyond it."""
    vals = sorted(values)
    out = {"unit": unit, "samples": len(vals),
           "median": statistics.median(vals) if vals else None, "tail": None}
    for p in (99, 95, 90, 75):
        rank = math.ceil(p / 100 * len(vals))
        if len(vals) - rank >= 10:
            value = vals[rank - 1] if tail == "high" else vals[len(vals) - rank]
            out["tail"] = {"p": p if tail == "high" else 100 - p, "value": value}
            break
    return out


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "blas_env": {key: os.environ.get(key) for key in proc.BLAS_ENV},
        "machine": platform.machine(),
    }


class SetupProbes:
    """Set-up samples, each in a fresh interpreter, spread over the run.

    The machine's speed drifts over seconds; samples taken between the
    passes see it over the whole run, not only its first seconds.
    """

    def __init__(self, workload: str, seed: int, size: str, workdir: Path,
                 cal: calib.Calibrator):
        self.argv = [str(HERE / "setup_probe.py"), workload, str(seed), size]
        self.workdir = workdir
        self.cal = cal
        self.todo = SETUP_SAMPLES[size]
        # (calibrated seconds to ready, wall seconds, {"import_s", "scipy_modules"})
        self.samples = []
        self.failures = []

    def run(self, count: int) -> float:
        """Take up to ``count`` samples; return the time spent."""
        t0 = perf_counter()
        for _ in range(min(count, self.todo)):
            self.todo -= 1
            self.cal.tick(force=True)
            start = perf_counter()
            res = proc.run_child(self.argv, self.workdir, self.workdir / "probe.err",
                                 wait_ready=True)
            self.cal.tick(force=True)
            lines = res.stdout.splitlines()
            if res.returncode != 0 or len(lines) < 2 or lines[0] != b"ready":
                self.failures.append(f"set-up probe exit {res.returncode}: {res.stderr[-300:]!r}")
                continue
            scaled = res.ready_s * self.cal.scale(start, res.ready_s)
            self.samples.append((scaled, res.ready_s, json.loads(lines[1])))
        return perf_counter() - t0


def _run_passes(wl, inputs, refs, seconds: float, trace: bool, workdir: Path,
                probes: SetupProbes, cal: calib.Calibrator, started: float):
    in_process = wl.name != "cli-pipeline"
    # cli-pipeline compares two passes for determinism; a traced run needs
    # one untraced and one traced pass for the overhead
    min_passes = 2 if (trace or not in_process) else 1
    deadline = perf_counter() + seconds
    state, passes = {}, []
    while True:
        traced = trace and len(passes) % 2 == 1
        tracer, trace_dir = None, None
        if traced and in_process:
            tracer = tracing.Tracer()
            tracer.install()
        elif traced:
            trace_dir = workdir / f"trace-{len(passes)}"
            trace_dir.mkdir()
        gc.collect()  # no garbage from the last pass inside the timing
        t0 = perf_counter()
        try:
            ops = wl.run_pass(inputs, refs, state, workdir, trace_dir, cal.tick)
        finally:
            if tracer is not None:
                tracer.uninstall()
        cal.tick(force=True)  # every op needs a sample after it
        wall = perf_counter() - t0
        for op in ops:
            op.scale = cal.scale(op.start, op.seconds)
        dumps = []
        if tracer is not None:
            dumps = [tracer.dump()]
        elif trace_dir is not None:
            dumps = [json.loads(p.read_text()) for p in sorted(trace_dir.glob("*.json"))]
        passes.append({"traced": traced, "ops": ops, "dumps": dumps,
                       "seconds": sum(op.calibrated_s for op in ops),
                       "wall_s": sum(op.seconds for op in ops)})
        now = perf_counter()
        done = len(passes) >= min_passes and (now + wall > deadline
                                              or now + wall - started > HARD_LIMIT_S)
        passes_left = 0 if done else max(0, int((deadline - now) // wall))
        # probe time does not eat into the measured passes
        deadline += probes.run(math.ceil(probes.todo / (passes_left + 1)))
        if done:
            return passes


def _step_medians(passes) -> dict:
    per_kind = defaultdict(list)
    for p in passes:
        sums = defaultdict(float)
        for op in p["ops"]:
            sums[op.kind] += op.calibrated_s
        for kind, value in sums.items():
            per_kind[kind].append(value)
    return {kind: statistics.median(vals) for kind, vals in per_kind.items()}


def _named_metrics(wl_name: str, passes, setup_s, rss_mb) -> dict:
    ops = [op for p in passes for op in p["ops"]]

    def op_times(kind):
        return [op.calibrated_s for op in ops if op.kind == kind]

    named = {"setup_s": _stats(setup_s, "s"), "peak_rss_mb": {"unit": "MB", "value": rss_mb}}
    if wl_name == "cli-pipeline":
        named["cli_pipeline_s"] = _stats([p["seconds"] for p in passes], "s")
    elif wl_name == "protocol-sim":
        for attacked, key in ((False, "honest_instances_per_s"), (True, "attacked_instances_per_s")):
            rates = []
            for p in passes:
                mine = [op for op in p["ops"] if op.extra.get("attacked") is attacked]
                busy = sum(op.extra["user_s"] * op.scale for op in mine)
                if busy > 0:
                    rates.append(sum(op.extra["instances"] for op in mine) / busy)
            named[key] = _stats(rates, "1/s", tail="low")
    else:
        named["strategy_build_s"] = _stats(op_times("build-d3"), "s")
        named["validate_s"] = _stats(op_times("validate-d5"), "s")
        named["attack_eval_s"] = _stats(op_times("attack-grid"), "s")
        named["attack_eval_n3_s"] = _stats(op_times("eval-scaling"), "s")
        named["lemma_s"] = _stats(op_times("lemma-d2n2"), "s")
    return named


def _per_layer(passes, probes, cli_steps) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    summary = tracing.summarize(d for p in traced for d in p["dumps"])
    per = len(traced)
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    put("import.meanking_s", statistics.median(info["import_s"] for *_, info in probes), "s")
    put("import.scipy_modules_count", max(info["scipy_modules"] for *_, info in probes), "count")
    for step in cli_steps:
        put(f"cli.{step}_s", summary["total"][f"cli.{step}"] / per, "s")
    for name in tracing.SPAN_NAMES:
        put(f"{name}_s", summary["total"][name] / per, "s")
        put(f"{name}_calls", summary["calls"][name] / per, "count")
    for name in tracing.COUNT_NAMES:
        put(f"{name}_count", summary["counts"][name] / per, "count")
    for layer in tracing.LAYERS:
        put(f"{layer}.self_s", summary["self"][layer] / per, "s")
    untraced = statistics.median(p["seconds"] for p in plain)
    overhead = statistics.median(p["seconds"] for p in traced) - untraced
    put("trace.overhead_s", overhead, "s")
    put("trace.overhead_ratio", overhead / untraced, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-pipeline", "protocol-sim", "exact-analysis"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    missing = [p for p in (proc.SRC / "meanking" / "__init__.py", proc.ROOT / "tests" / "oracles.py")
               if not p.is_file()]
    if missing:
        sys.stderr.write(f"error: the checkout lacks {', '.join(map(str, missing))}\n")
        return 2
    proc.pin_blas_threads()
    sys.path[:0] = [str(proc.SRC), str(proc.ROOT / "tests")]
    import meanking

    if Path(meanking.__file__).resolve().parent != (proc.SRC / "meanking").resolve():
        sys.stderr.write(f"error: imported meanking from {meanking.__file__}, not the checkout\n")
        return 2
    import calib  # imports numpy: only after the BLAS threads are pinned
    import workloads

    pinned_cpu = calib.pin_one_cpu()
    started = perf_counter()
    wl = workloads.WORKLOADS[args.workload]
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        cal = calib.Calibrator()
        probes = SetupProbes(wl.name, args.seed, args.size, workdir, cal)
        probes.run(1)
        inputs = wl.setup(args.seed, args.size)
        refs = wl.references(inputs)
        passes = _run_passes(wl, inputs, refs, args.seconds, bool(args.trace), workdir,
                             probes, cal, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    if not probes.samples:
        sys.stderr.write("error: every set-up probe failed\n" + "\n".join(probes.failures) + "\n")
        return 2
    ops = [op for p in passes for op in p["ops"]]
    failures = probes.failures + [f"{op.kind}: {msg}" for op in ops for msg in op.errors]
    attempted = len(ops) + SETUP_SAMPLES[args.size]
    failed = sum(1 for op in ops if op.errors) + len(probes.failures)
    setup_s = [scaled for scaled, _, _ in probes.samples]
    plain = [p for p in passes if not p["traced"]]
    if wl.name == "cli-pipeline":
        rss_mb = max(op.extra.get("maxrss_mb", 0.0) for op in ops)
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    steps = _step_medians(plain)

    if args.trace:
        metrics = _per_layer(passes, probes.samples, workloads.CliPipeline.steps)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "pass_s": {"value": statistics.median(p["seconds"] for p in plain), "unit": "s"},
            "step_geomean_ms": {
                "value": 1e3 * statistics.geometric_mean(steps.values()), "unit": "ms"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "size": args.size,
        "trace": args.trace,
        "passes": len(passes),
        "traced_passes": sum(1 for p in passes if p["traced"]),
        "pass_s": [p["seconds"] for p in passes],
        "pass_wall_s": [p["wall_s"] for p in passes],
        "setup_samples_s": setup_s,
        "setup_samples_wall_s": [wall for _, wall, _ in probes.samples],
        "calibration": {"reference_s": calib.REFERENCE_S, "pinned_cpu": pinned_cpu,
                        "samples": len(cal.samples),
                        "kernel_median_s": statistics.median(cal.samples)},
        "metrics": _named_metrics(wl.name, plain, setup_s, rss_mb),
        "error_rate": {"unit": "ratio", "value": failed / attempted},
        "step_median_s": steps,
        "machine": _machine(),
        "failures": failures[:50],
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
