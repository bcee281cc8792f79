"""Fixed reference work that the benchmark times next to every operation.

    python3 perfbench/calibrate.py

A fresh interpreter that builds sets of permutation tuples, as a census
does, and sums Fractions, as root isolation does.  It imports nothing from
the program, so its time changes only with the speed of the machine, and
the benchmark uses it to scale operation times to a reference speed (see
README.md).
"""

from fractions import Fraction
from itertools import permutations


def work() -> int:
    level = set()
    for p in permutations(range(1, 8)):
        for pos in range(8):
            level.add(p[:pos] + (8,) + p[pos:])
    total = Fraction(0)
    for i in range(1, 6000):
        total += Fraction(i, i * i + 1)
    return len(level) + total.numerator % 1000


if __name__ == "__main__":
    print(work())
