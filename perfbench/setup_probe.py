"""Set-up of one workload in a fresh interpreter.

    python perfbench/setup_probe.py WORKLOAD SEED SIZE

Prints ``ready`` once the workload's inputs exist (the parent times the
interval from spawn to that line), then one JSON line with the time the
``import meanking`` statement took and the scipy modules it loaded.
"""

import json
import sys
from time import perf_counter

import proc

sys.path.insert(0, str(proc.SRC))

t0 = perf_counter()
import meanking  # noqa: E402,F401

import_s = perf_counter() - t0
scipy_modules = sum(1 for key in sys.modules if key == "scipy" or key.startswith("scipy."))

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]), sys.argv[3])
print("ready", flush=True)
print(json.dumps({"import_s": import_s, "scipy_modules": scipy_modules}))
