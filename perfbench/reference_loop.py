"""The calibration loop, run as a child process of the benchmark.

Each line read from standard input runs the loop once; the loop's wall
seconds are written back as one line.  The loop is independent of the
program under test (a walk over a fixed random graph plus a sorted-column
lookup, the same mix of interpreter and numpy work as an estimate), and
runs in its own process so that nothing the program does to the
benchmark's process (threads holding the GIL, profiling or tracing hooks,
garbage-collector settings) slows it.  It sees only the host's speed.
The loop ends when its standard input closes.
"""

import random
import sys
import time

import numpy as np


def main() -> None:
    rng = random.Random(1)
    graph = {u: [rng.randrange(2_000) for _ in range(8)] for u in range(2_000)}
    generator = np.random.default_rng(0)
    column = np.sort(generator.random(200_000))
    probe = generator.random(2_000)
    for _ in sys.stdin:
        walk_rng = random.Random(7)
        start = time.perf_counter()
        visits = {}
        node = 0
        for _ in range(6_000):
            node = graph[node][walk_rng.getrandbits(3)]
            visits[node] = visits.get(node, 0) + 1
        np.searchsorted(column, probe)
        sys.stdout.write(f"{time.perf_counter() - start!r}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
