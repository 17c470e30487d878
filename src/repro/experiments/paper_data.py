"""The paper's published Tables 1-3, transcribed verbatim.

Every entry is ``{max_load: percent}`` over the paper's 1000 trials.
These are the ground truth the reproduction is compared against in
the reports ``python -m repro.experiments all --out DIR`` writes (see
docs/paper_map.md for which experiment reproduces which table) and in the
integration tests (via Wilson-interval compatibility, since our default
trial counts differ).

Transcription notes: the d = 1 columns in the source are typeset as two
sub-columns; they are merged here.  Percentages are as printed and may
sum to 99.9/100.1 due to rounding.
"""

from __future__ import annotations

from repro.stats.distributions import MaxLoadDistribution

__all__ = [
    "PAPER_TABLE1",
    "PAPER_TABLE2",
    "PAPER_TABLE3",
    "paper_distribution",
    "PAPER_TRIALS",
]

#: Trials behind every published percentage.
PAPER_TRIALS = 1000

# Table 1: random arcs on the ring, m = n, random tie-breaking.
# {n: {d: {max_load: percent}}}
PAPER_TABLE1: dict[int, dict[int, dict[int, float]]] = {
    2**8: {
        1: {5: 1.1, 6: 12.3, 7: 23.6, 8: 23.9, 9: 18.8, 10: 9.6, 11: 5.7,
            12: 2.1, 13: 1.7, 14: 0.4, 15: 0.2, 16: 0.4, 17: 0.1, 18: 0.1,
            19: 0.1},
        2: {3: 26.8, 4: 70.0, 5: 3.2},
        3: {2: 0.1, 3: 97.9, 4: 2.0},
        4: {2: 13.1, 3: 86.9},
    },
    2**12: {
        1: {9: 0.9, 10: 11.7, 11: 23.8, 12: 23.0, 13: 18.9, 14: 10.2,
            15: 5.3, 16: 3.0, 17: 1.3, 18: 0.6, 19: 0.7, 20: 0.4, 21: 0.1,
            22: 0.1, 24: 0.1},
        2: {4: 88.1, 5: 11.8, 6: 0.1},
        3: {3: 89.6, 4: 10.4},
        4: {3: 100.0},
    },
    2**16: {
        1: {13: 1.1, 14: 12.6, 15: 24.4, 16: 22.0, 17: 16.6, 18: 11.2,
            19: 6.2, 20: 2.5, 21: 1.8, 22: 0.6, 23: 0.4, 24: 0.1, 25: 0.3,
            26: 0.1, 32: 0.1},
        2: {4: 19.6, 5: 80.4},
        3: {3: 21.0, 4: 79.0},
        4: {3: 100.0},
    },
    2**20: {
        1: {17: 2.1, 18: 11.4, 19: 22.7, 20: 21.0, 21: 20.4, 22: 10.3,
            23: 6.3, 24: 2.3, 25: 1.5, 26: 1.0, 27: 0.8, 28: 0.1, 29: 0.1},
        2: {5: 99.9, 6: 0.1},
        3: {4: 100.0},
        4: {3: 99.1, 4: 0.9},
    },
    2**24: {
        1: {21: 2.1, 22: 9.7, 23: 23.8, 24: 23.8, 25: 17.0, 26: 10.9,
            27: 5.6, 28: 3.3, 29: 2.3, 30: 0.8, 31: 0.3, 32: 0.2, 34: 0.1,
            35: 0.1},
        2: {5: 99.4, 6: 0.6},
        3: {4: 100.0},
        4: {3: 86.5, 4: 13.5},
    },
}

# Table 2: random Voronoi cells on the unit torus, m = n, random ties.
PAPER_TABLE2: dict[int, dict[int, dict[int, float]]] = {
    2**8: {
        1: {4: 4.0, 5: 38.4, 6: 35.5, 7: 16.3, 8: 3.9, 9: 1.4, 10: 0.4,
            11: 0.1},
        2: {2: 0.2, 3: 95.6, 4: 4.2},
        3: {2: 45.0, 3: 55.0},
        4: {2: 92.2, 3: 7.8},
    },
    2**12: {
        1: {6: 2.0, 7: 29.7, 8: 40.5, 9: 20.2, 10: 5.8, 11: 1.5, 12: 0.2,
            13: 0.1},
        2: {3: 57.1, 4: 42.9},
        3: {3: 100.0},
        4: {2: 31.9, 3: 68.1},
    },
    2**16: {
        1: {8: 0.7, 9: 26.9, 10: 44.1, 11: 18.8, 12: 7.4, 13: 1.7, 14: 0.3,
            15: 0.1},
        2: {4: 100.0},
        3: {3: 99.9, 4: 0.1},
        4: {3: 100.0},
    },
    2**20: {
        1: {10: 0.9, 11: 22.0, 12: 45.7, 13: 22.8, 14: 6.5, 15: 1.8,
            16: 0.3},
        2: {4: 99.8, 5: 0.2},
        3: {3: 99.6, 4: 0.4},
        4: {3: 100.0},
    },
}

# Table 3: ring, d = 2, m = n, varying tie-breaking strategies.
# {n: {strategy: {max_load: percent}}}
PAPER_TABLE3: dict[int, dict[str, dict[int, float]]] = {
    2**8: {
        "arc-larger": {3: 8.5, 4: 82.8, 5: 8.6, 6: 0.1},
        "arc-random": {3: 26.8, 4: 70.0, 5: 3.2},
        "arc-left": {3: 57.3, 4: 42.5, 5: 0.2},
        "arc-smaller": {3: 72.4, 4: 27.6},
    },
    2**12: {
        "arc-larger": {4: 39.7, 5: 60.2, 6: 0.1},
        "arc-random": {4: 88.1, 5: 11.8, 6: 0.1},
        "arc-left": {4: 99.9, 5: 0.1},
        "arc-smaller": {3: 1.7, 4: 97.9, 5: 0.4},
    },
    2**16: {
        "arc-larger": {5: 99.6, 6: 0.4},
        "arc-random": {4: 19.6, 5: 80.4},
        "arc-left": {4: 96.7, 5: 3.3},
        "arc-smaller": {4: 99.0, 5: 1.0},
    },
    2**20: {
        "arc-larger": {5: 93.9, 6: 6.1},
        "arc-random": {5: 99.9, 6: 0.1},
        "arc-left": {4: 63.9, 5: 36.1},
        "arc-smaller": {4: 88.8, 5: 11.2},
    },
    2**24: {
        "arc-larger": {5: 37.4, 6: 62.6},
        "arc-random": {5: 99.4, 6: 0.6},
        "arc-left": {5: 100.0},
        "arc-smaller": {4: 10.5, 5: 89.5},
    },
}


def paper_distribution(percentages: dict[int, float]) -> MaxLoadDistribution:
    """Convert a published ``{load: percent}`` cell into a distribution.

    Percentages become integer counts out of :data:`PAPER_TRIALS`
    (each printed 0.1% is exactly one trial).
    """
    counts = {
        load: max(1, round(pct * PAPER_TRIALS / 100.0))
        for load, pct in percentages.items()
    }
    return MaxLoadDistribution.from_samples(
        [k for k, v in counts.items() for _ in range(v)]
    )
