"""Traced CLI child: `python3 -X importtime perfbench/clichild.py ARGS`.

Runs `residuum.cli.main(ARGS)` with the per-layer wrappers installed
and writes their counts and self times as JSON to the file named by
PERFBENCH_TRACE_FILE. Untraced runs call `python3 -m residuum.cli`.
"""

import json
import os
import sys

import residuum.cli
import tracing

tracer = tracing.Tracer().install()
code = residuum.cli.main(sys.argv[1:])
with open(os.environ["PERFBENCH_TRACE_FILE"], "w") as fh:
    json.dump(tracer.snapshot(), fh)
sys.exit(code)
