"""Time the level-0 odd trace in a process whose environment pins BLAS threads.

Usage: python3 blas_probe.py <pair.pickle>

The pickle holds the (P, Q) pair the benchmark built; it is written by the
benchmark and read only here.  Prints one JSON line with the seconds, the
value and the BLAS thread count this process ran with.
"""

import json
import pickle
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from fluxlab import projpair  # noqa: E402

from machine import blas_threads  # noqa: E402


def main(path: str) -> int:
    with open(path, "rb") as fh:
        P, Q = pickle.load(fh)
    t0 = time.perf_counter()
    rep = projpair.index_by_odd_trace(Q, P, n=1)
    seconds = time.perf_counter() - t0
    print(json.dumps({"seconds": seconds, "value": rep.value,
                      "blas_threads": blas_threads()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
