"""Measure one cold set-up of an in-process workload in a fresh interpreter.

Usage: python3 probe.py WORKLOAD SEED N

Prints {"setup_s": ...}: the time to import fanbeam plus the first op
(table build, calibration), excluding the generation of its input.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> None:
    t0 = time.perf_counter()
    import fanbeam  # noqa: F401

    import_s = time.perf_counter() - t0
    from workloads import WORKLOADS, cold_setup

    name, seed, n = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    setup_s = cold_setup(WORKLOADS[name], n, seed, import_s)[0]
    print(json.dumps({"setup_s": setup_s}))


if __name__ == "__main__":
    main()
