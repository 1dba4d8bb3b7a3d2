"""Run `spprox run CONFIG --workers 1` in this process with the tracer on.

Usage: python3 bench/traced_run.py CONFIG TRACE_JSON TRACE_ID

Writes the trace (spans, call counts, per-run times, pool-transfer cost) to
TRACE_JSON and exits with the run's exit code.  The last stdout line is
{"post_s": ...}: the time spent after the run (pool-transfer timing and
writing the trace), which the caller leaves out of the traced wall time.
"""

import json
import sys
import time


def main(argv) -> int:
    config, trace_path, trace_id = argv
    from spprox import cli
    from tracer import Tracer, install

    tracer = Tracer(trace_id)
    install(tracer)
    try:
        code = cli.main(["run", config, "--workers", "1"])
    finally:
        tracer.restore()
    post0 = time.perf_counter()
    data = tracer.to_json()
    data["exit_code"] = code
    data["pool_transfer"] = tracer.pool_transfer()
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    print(json.dumps({"post_s": time.perf_counter() - post0}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
