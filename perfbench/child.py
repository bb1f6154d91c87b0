"""Child processes the benchmark starts, one at a time, with src on PYTHONPATH.

    child.py setup WORKLOAD SEED INDIR T0_NS
        import definetti and write the workload's input files into INDIR
    child.py certify RECORD T0_NS CLI-ARGS...
        run definetti's CLI with tracing; spans and counts go to RECORD

T0_NS is the parent's ``time.monotonic_ns()`` just before it started this
process; the time from it to the end of ``import definetti`` is reported as
startup_ms (interpreter start plus package import).
"""

import json
import sys
import time
from pathlib import Path


def main(argv) -> int:
    mode = argv[0]
    t0 = int(argv[4] if mode == "setup" else argv[2])
    import definetti

    startup_ms = (time.monotonic_ns() - t0) / 1e6
    if mode == "setup":
        from workloads import WORKLOADS

        WORKLOADS[argv[1]].write_inputs(definetti, int(argv[2]), Path(argv[3]))
        print(json.dumps({"startup_ms": startup_ms}))
        return 0

    from definetti import cli
    from spans import Tracer

    tracer = Tracer()
    tracer.op = 0
    with tracer.installed():
        code = tracer.call("cli.main", cli.main, argv[3:])
    record = {"startup_ms": startup_ms, "spans": tracer.spans, "counts": dict(tracer.counts)}
    Path(argv[1]).write_text(json.dumps(record), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
