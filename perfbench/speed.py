"""The host's current speed, from a fixed pure-Python reference kernel.

On a shared host the same command can take 1.8 times as long from one
minute to the next, because a vCPU's speed follows the load of its
neighbours. `run.py` therefore pins itself and its children to one CPU and
times this kernel on that CPU just before and just after every command. A
command's times are then reported at the reference speed: multiplied by
`REFERENCE_S` over the kernel's mean time around it. A change to the program
moves the command's time and not the kernel's, so it shows in full; a change
in the host's speed moves both, and cancels.

The kernel does what kgmend spends its time on: it builds a string-keyed
adjacency of sets and walks it breadth-first in sorted order, allocating
strings, tuples, sets and lists.
"""

from __future__ import annotations

import os
import time

# about the kernel's median time per repetition on the host the baseline was
# recorded on (2 vCPUs of a shared x86-64 host, Python 3.11.7); a fixed scale,
# so that times at the reference speed read close to that host's own seconds
REFERENCE_S = 0.005
# repetitions on each side of a command, about 200 ms: a shorter window
# follows the host's sub-second swings instead of its speed over the command
REPS = 40


def _kernel() -> int:
    adj: dict = {}
    for i in range(3000):
        a, b = f"v{i}", f"v{(i * 7 + 3) % 3000}"
        adj.setdefault(a, set()).add((f"r{i % 13}", b))
        adj.setdefault(b, set()).add((f"r{i % 11}", a))
    total = 0
    for root in range(0, 3000, 60):
        seen = {f"v{root}"}
        frontier = [f"v{root}"]
        for _ in range(3):
            reached = []
            for v in frontier:
                for _, w in sorted(adj.get(v, ())):
                    if w not in seen:
                        seen.add(w)
                        reached.append(w)
            frontier = reached
        total += len(seen)
    return total


def kernel_s() -> float:
    """Mean time of one kernel repetition, now, on this process's CPU."""
    t0 = time.perf_counter()
    for _ in range(REPS):
        _kernel()
    return (time.perf_counter() - t0) / REPS


def pin_to_one_cpu() -> None:
    """Keep this process and every child it starts on one CPU.

    The vCPUs of a shared host change speed independently of each other, so
    the kernel must run on the CPU the command runs on.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
