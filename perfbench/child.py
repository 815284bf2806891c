"""One benchmark process: import nanorotor, optionally trace it, run the CLI.

    python3 perfbench/child.py ROOT MODE RECORD_JSON [CLI ARGS ...]

MODE is ``run`` (call ``nanorotor.cli.main`` with the CLI args), ``trace``
(the same, with every layer boundary wrapped by :mod:`tracer`) or
``calibrate`` (see :func:`calibrate`).  RECORD_JSON receives ``ready``, the
CLOCK_MONOTONIC time at which ``main`` became callable; that clock is shared
by every process of the machine, so the parent subtracts its own spawn time
from it.  It also gets ``main_s`` (the duration of ``main``), and with
``trace`` the spans and counts.  The exit code is the CLI's.
"""

import json
import os
import sys
import time


def calibrate() -> dict:
    """Fixed work whose duration shows how fast the machine runs at the moment.

    Like a benchmarked process, it imports numpy and scipy (not nanorotor;
    ``ready`` marks the end of the imports), then computes: about 0.2 s in
    three equal parts, small matrix products (BLAS, with its default
    threads), numpy element-wise functions and a plain Python loop.  No
    change to nanorotor moves its duration.
    """
    import numpy as np
    import scipy.constants  # noqa: F401
    import scipy.integrate  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.special  # noqa: F401

    ready = time.monotonic()
    rng = np.random.default_rng(0)
    a, x = rng.random((120, 120)), rng.random(50_000)
    for _ in range(600):
        a @ a
    for _ in range(150):
        np.exp(np.sin(x))
    acc = 0.0
    for k in range(400_000):
        acc += k * 0.5
    return {"ready": ready}


def main() -> int:
    root, mode, record_path, *cli_args = sys.argv[1:]
    if mode == "calibrate":
        with open(record_path, "w") as fh:
            json.dump(calibrate(), fh)
        return 0
    sys.path.insert(0, os.path.join(root, "src"))
    from nanorotor import cli

    record = {"ready": time.monotonic()}
    tracer = None
    if mode == "trace":
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer.install()
    start = time.perf_counter()
    code = cli.main(cli_args)
    record["main_s"] = time.perf_counter() - start
    if tracer is not None:
        record["spans"] = tracer.spans
        record["counts"] = tracer.counts
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
