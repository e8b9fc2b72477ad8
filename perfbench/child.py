"""Fresh-interpreter helpers started by run.py, one process at a time.

    python3 perfbench/child.py setup WORKLOAD SEED
        Import the package and run one warm-up operation of each kind the
        workload uses, then print {"gen_s": ...}: the seconds spent on the
        benchmark's own input generation, which set-up time excludes.

    python3 perfbench/child.py probe < request.json
        Run one frontier operation {"argv": [...], "stdin": "..."} with the
        layer wrappers installed and print {"rc", "out", "refused"}.  The
        caller enforces the wall-clock cap; the address space is capped
        here so an oversized request fails instead of exhausting memory.

Both expect the checkout's `src` directory on PYTHONPATH.
"""

from __future__ import annotations

import json
import resource
import sys
import time

PROBE_MEMORY_BYTES = 4 << 30


def setup(workload: str, seed: int) -> None:
    import adinkra.cli
    import adinkra.search

    # Only the benchmark's own modules and inputs are timed here: standard
    # modules the package imports are already loaded and stay in set-up.
    t0 = time.perf_counter()
    import workloads

    warm = workloads.build_warmups(workload, seed)
    gen_s = time.perf_counter() - t0
    for op in warm:
        workloads.execute(op, adinkra.cli, adinkra.search)
    print(json.dumps({"gen_s": gen_s}), flush=True)


def probe() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (PROBE_MEMORY_BYTES, PROBE_MEMORY_BYTES))
    request = json.load(sys.stdin)
    import workloads
    from tracing import Tracer

    import adinkra.cli
    import adinkra.search

    tracer = Tracer()
    tracer.install()
    op = workloads.Op(label="probe", kind="probe", argv=tuple(request["argv"]),
                      stdin=request["stdin"])
    try:
        rc, out = workloads.execute(op, adinkra.cli, adinkra.search)
    except MemoryError:
        print(json.dumps({"memory": True}))
        return
    finally:
        tracer.uninstall()
    refused = {k: v for k, v in tracer.counts.items() if k.endswith(".refused")}
    print(json.dumps({"rc": rc, "out": out, "refused": refused}))


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"]:
        setup(sys.argv[2], int(sys.argv[3]))
    elif sys.argv[1:2] == ["probe"]:
        probe()
    else:
        sys.exit(__doc__)
