"""One fresh-process sample of the benchmark's set-up time.

Run as ``python3 perfbench/setup_probe.py <workload> <seed>``.  Prints the
seconds, at nominal host speed (see ``speed``), spent importing ``rotaxa``
from the checkout's ``src`` and building and serializing the workload's
model documents; interpreter start-up is not included.
"""

import os
import sys
import time


def main() -> None:
    start = time.perf_counter()
    sys.path.insert(0, os.path.join(os.path.dirname(sys.path[0]), "src"))
    import rotaxa

    from workloads import build_jobs

    build_jobs(sys.argv[1], int(sys.argv[2]), rotaxa)
    elapsed = time.perf_counter() - start

    from speed import nominal_factor

    print(elapsed * nominal_factor())


if __name__ == "__main__":
    main()
