"""Run ``python -m repro serve run`` under the benchmark's span wrappers.

Usage: ``serve_traced.py LEVEL DUMP [serve run arguments...]``, with the
checkout's ``src`` on ``PYTHONPATH``.  LEVEL is ``run`` or ``full`` (see
``layers.instrument``).  On SIGINT the spans recorded so far, plus the
session's host wall, are written as JSON to DUMP and the process exits
at once; the client has finished by then, so the server is idle.  (The
CLI's own clean stop would wait about 5 s for a thread parked in
``accept``.)
"""

import json
import os
import signal
import sys
from time import perf_counter

import layers


def main(argv) -> int:
    level, dump, serve_args = argv[0], argv[1], argv[2:]
    from repro.serve.cli import main as serve_main

    rec = layers.Recorder()
    t0 = perf_counter()

    def dump_and_exit(signum, frame):
        data = rec.export()
        data["counts"]["session_s"] = perf_counter() - t0
        with open(dump, "w") as f:
            json.dump(data, f)
        os._exit(0)

    signal.signal(signal.SIGINT, dump_and_exit)
    with layers.instrument(rec, level):
        return serve_main(["run", *serve_args])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
