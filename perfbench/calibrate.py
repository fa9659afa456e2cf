"""A fixed reference task that measures how fast the machine runs right now.

The benchmark's machine is a few cores of a shared host whose speed drifts by
tens of percent over tens of seconds, longer than one invocation and as long
as a whole run, so a run's median moves with the host. The worker times this
task before every invocation and after the last one; ``run.py`` divides each
invocation's times by the mean of the two reference times around it and
multiplies by ``REFERENCE_S``, the task's time on the machine the reference
figures were taken on. The result is the invocation's time at that speed.

The task runs in a child process of the worker (``ReferenceProcess``), so
that its memory stays out of the worker's resident-memory peak; the worker
waits while it runs, so the two never compete for a core.

The task does not use pava, so a change to pava does not change it. It mixes
the kinds of work pava's invocations are made of: a numpy loop of small
vector operations (as in exact Prim), a kd-tree k-nearest-neighbour query
(as in k-distances and the approximate tree) and a Python breadth-first walk
over adjacency lists (as in the minmax traversal).
"""

from __future__ import annotations

import subprocess
import sys
import time
from collections import deque

import numpy as np
from scipy.spatial import cKDTree

# Median time of reference_task() on the 2-CPU machine of the README's figures.
REFERENCE_S = 0.25

PRIM_POINTS = 1500
KNN_POINTS = 20000
KNN_K = 10
TREE_NODES = 30000
WALKS = 3


def _prim_weight(points: np.ndarray) -> float:
    n = len(points)
    best = np.full(n, np.inf)
    done = np.zeros(n, dtype=bool)
    j, total = 0, 0.0
    for _ in range(n - 1):
        done[j] = True
        np.minimum(best, np.sqrt(((points - points[j]) ** 2).sum(axis=1)), out=best)
        best[done] = np.inf
        j = int(best.argmin())
        total += best[j]
    return total


def _widest_step(adjacency: list) -> int:
    widest = [0] * len(adjacency)
    seen = bytearray(len(adjacency))
    seen[0] = 1
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if not seen[v]:
                seen[v] = 1
                widest[v] = max(widest[u], abs(v - u))
                queue.append(v)
    return max(widest)


def reference_task() -> float:
    """Run the task on fixed inputs; return its wall time in seconds."""
    rng = np.random.default_rng(0)
    plane = rng.random((PRIM_POINTS, 2))
    space = rng.random((KNN_POINTS, 3))
    parents = (rng.random(TREE_NODES - 1) * np.arange(1, TREE_NODES)).astype(np.int64)
    t0 = time.perf_counter()
    _prim_weight(plane)
    cKDTree(space).query(space, k=KNN_K)
    adjacency = [[] for _ in range(TREE_NODES)]
    for child, parent in enumerate(parents.tolist(), start=1):
        adjacency[child].append(parent)
        adjacency[parent].append(child)
    for _ in range(WALKS):
        _widest_step(adjacency)
    return time.perf_counter() - t0


def serve() -> None:
    """Run the task once for each line read from stdin and print its time."""
    reference_task()  # warm-up
    for _ in sys.stdin:
        print(repr(reference_task()), flush=True)


class ReferenceProcess:
    """``serve()`` in a child process; ``time()`` runs the task once there."""

    def __enter__(self) -> "ReferenceProcess":
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        return self

    def time(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()  # the child's loop ends with its input
        self.proc.wait()
        self.proc.stdout.close()


if __name__ == "__main__":
    serve()
