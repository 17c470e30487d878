#!/usr/bin/env python
"""Scaling demonstration: "system size scales into the millions".

The paper's abstract promises simulations with millions of items and
servers; this script delivers them on a laptop via the vectorized
engine.  Default sweep reaches n = 2^20 (~1M); pass an exponent to go
to the paper's full 2^24 (~16.7M; a few minutes and ~2 GB).

Usage::

    python examples/scaling_demo.py [max_exponent]
"""

import sys
import time

from repro import RingSpace, place_balls
from repro.theory.recursion import theorem1_leading_term


def main() -> None:
    max_exp = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    print(f"{'n':>10} {'d=1':>6} {'d=2':>6} {'d=3':>6} "
          f"{'loglog/log d (d=2)':>20} {'seconds':>9}")
    print("-" * 62)
    for exp in range(10, max_exp + 1, 2):
        n = 1 << exp
        start = time.perf_counter()
        ring = RingSpace.random(n, seed=exp)
        maxima = {}
        for d in (1, 2, 3):
            maxima[d] = place_balls(ring, n, d, seed=1000 + exp).max_load
        elapsed = time.perf_counter() - start
        print(
            f"{f'2^{exp}':>10} {maxima[1]:>6} {maxima[2]:>6} {maxima[3]:>6} "
            f"{theorem1_leading_term(n, 2):>20.2f} {elapsed:>9.2f}"
        )
    print(
        "\nReading: the d=1 column tracks Theta(log n); d>=2 crawls "
        "upward like log log n, exactly as in the paper's Table 1."
    )


if __name__ == "__main__":
    main()
