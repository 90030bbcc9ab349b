"""One traced ``meanking`` command in a fresh interpreter.

    python perfbench/cli_child.py SPANS_OUT STEP ARGS...

Runs ``meanking ARGS...`` with the benchmark's tracer installed around the
package's public functions, writes the spans and counters as JSON to
SPANS_OUT, and exits with the command's exit code. The command's own stdout
is left untouched, so it can be compared with an untraced run.
"""

import json
import sys

import proc
from tracing import Tracer

sys.path.insert(0, str(proc.SRC))

tracer = Tracer()
with tracer.span("import.meanking"):
    import meanking.cli

tracer.install()
with tracer.span(f"cli.{sys.argv[2]}"):
    code = meanking.cli.main(sys.argv[3:])
tracer.uninstall()
sys.stdout.flush()
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump(tracer.dump(), fh)
sys.exit(code)
