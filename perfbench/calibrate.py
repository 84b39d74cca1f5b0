"""Machine-speed reference used to normalise every timing the benchmark reports.

On a shared machine the same code runs up to 2x slower from one second to
the next, and for tens of seconds at a time, so raw timings of one commit
spread more between runs than the regressions the benchmark must catch.  Each process that measures
also times ``kernel`` between its own work; ``speed`` is the median kernel
time over ``NOMINAL_S``, and run.py reports each time divided by it (each
rate multiplied by it): the figure the run would have shown at nominal
machine speed.  The kernel never touches thermoform, so a change to the
program cannot move it; raw figures are kept next to the normalised ones.

The kernel mimics the program's instruction mix: a recursive walk over a
fixed expression tree that carries a value and a gradient, like the
program's forward-mode evaluator.  It is plain Python, so a fresh process
can time it before it imports numpy or thermoform.
"""
import statistics
import time

NOMINAL_S = 0.4e-3  # kernel median, unloaded, on the machine the baseline was taken on
N = 8


def _tree(depth: int, k: int):
    if depth == 0:
        return ("var", k % N)
    op = "+*-/"[k % 4]
    return (op, _tree(depth - 1, 2 * k + 1), _tree(depth - 1, 2 * k + 2))


TREE = _tree(8, 0)
POINT = [0.5 + i / N for i in range(N)]
SEEDS = [tuple(1.0 if i == j else 0.0 for j in range(N)) for i in range(N)]


def _eval(node):
    if node[0] == "var":
        i = node[1]
        return POINT[i], SEEDS[i]
    (a, ga), (b, gb) = _eval(node[1]), _eval(node[2])
    if node[0] == "+":
        return a + b, tuple(x + y for x, y in zip(ga, gb))
    if node[0] == "-":
        return a - b, tuple(x - y for x, y in zip(ga, gb))
    if node[0] == "*":
        return a * b, tuple(x * b + a * y for x, y in zip(ga, gb))
    return a / b, tuple((x * b - a * y) / (b * b) for x, y in zip(ga, gb))


def kernel() -> float:
    v, g = _eval(TREE)
    return v + sum(g)


def timings(calls: int) -> list[float]:
    out = []
    for _ in range(calls):
        t0 = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t0)
    return out


def speed(samples: list[float]) -> float:
    """Slowdown relative to the nominal machine (>1 means slower)."""
    return statistics.median(samples) / NOMINAL_S
