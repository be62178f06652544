"""Run the polytrig CLI in this process with every public polytrig function traced.

Usage: python3 bench/tracecli.py OUT.json [polytrig arguments...]

Times ``import polytrig.cli`` in this fresh process, runs ``cli.main`` on the
arguments, writes the span summary to OUT.json and the spans next to it
(OUT.npz), and exits with the CLI's exit code.
"""
import json
import sys
from pathlib import Path
from time import perf_counter

import tracer

if __name__ == "__main__":
    out = Path(sys.argv[1])
    start = perf_counter()
    import polytrig.cli as cli
    import_s = perf_counter() - start
    spans = tracer.Tracer()
    tracer.install(spans)
    code = cli.main(sys.argv[2:])
    spans.write_spans(out.with_suffix(".npz"))
    out.write_text(json.dumps({"import_s": import_s, "summary": spans.summary()}))
    sys.exit(code)
