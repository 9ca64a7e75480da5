"""Run `fowler4 <args>` with the layer spans installed, as a traced gate-exact op.

Usage: gate_child.py TRACE_OUT verify --suite G --out LEDGER.csv
Writes the span aggregates to TRACE_OUT and exits with the CLI's code.
"""

import json
import sys
from pathlib import Path

from fowler4 import cli
from tracing import Tracer, install

if __name__ == "__main__":
    tracer = Tracer()
    install(tracer)
    code = cli.main(sys.argv[2:])
    Path(sys.argv[1]).write_text(json.dumps(tracer.dump("cli.verify")))
    sys.exit(code)
