"""Shape tests: our simulation must reproduce the paper's findings.

These are the paper-shape criteria (``docs/paper_map.md``) run at the
paper's smallest table size (n = 2^8, where 100+ trials take well under
a second) plus cross-checks of the transcribed reference data itself.
Comparisons use Wilson-interval compatibility because our trial counts
differ from the paper's 1000.  ``TestTableCells`` checks the modal max
load of seeded cells up to n = 2^16 against Tables 1-3.
"""

import pytest

from repro.experiments.paper_data import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    PAPER_TABLE3,
    PAPER_TRIALS,
    paper_distribution,
)
from repro.experiments.table3 import STRATEGIES
from repro.stats.confidence import frequencies_compatible
from repro.stats.trials import CellSpec, run_cell

TRIALS = 120
SEED = 987

#: Seed base of ``TestTableCells``; each cell adds its own offset.
TABLE_SEED = 20030206


def _table_cell(space, n, d, offset, trials=25):
    return pytest.param(space, n, d, trials, TABLE_SEED + offset,
                        id=f"{space}-n{n}-d{d}")


#: Table 1 (ring) and Table 2 (torus) cells: space, n, d, trials, seed.
TABLE_CELLS = (
    [_table_cell("ring", 2**8, d, d) for d in (1, 2, 3, 4)]
    + [_table_cell("ring", 2**12, d, 10 + d) for d in (1, 2, 3, 4)]
    + [_table_cell("ring", 2**16, 2, 0, trials=5)]
    + [_table_cell("torus", 2**8, d, 20 + d) for d in (1, 2, 3, 4)]
    + [_table_cell("torus", 2**12, d, 30 + d) for d in (1, 2)]
)


def _table3_cell(name, seed):
    tiebreak, partitioned = STRATEGIES[name]
    spec = CellSpec("ring", 2**8, 2, strategy=tiebreak, partitioned=partitioned)
    return run_cell(spec, 30, seed=seed)


@pytest.fixture(scope="module")
def table1_n256():
    return {
        d: run_cell(CellSpec("ring", 2**8, d), TRIALS, seed=SEED + d)
        for d in (1, 2, 3, 4)
    }


@pytest.fixture(scope="module")
def table2_n256():
    return {
        d: run_cell(CellSpec("torus", 2**8, d), TRIALS, seed=SEED + 10 + d)
        for d in (1, 2, 3, 4)
    }


class TestPaperDataIntegrity:
    def test_percentages_sum_to_100(self):
        for table in (PAPER_TABLE1, PAPER_TABLE2):
            for n, row in table.items():
                for d, cell in row.items():
                    assert sum(cell.values()) == pytest.approx(100.0, abs=0.5), (n, d)
        for n, row in PAPER_TABLE3.items():
            for strat, cell in row.items():
                assert sum(cell.values()) == pytest.approx(100.0, abs=0.5)

    def test_paper_distribution_roundtrip(self):
        dist = paper_distribution(PAPER_TABLE1[2**8][2])
        assert dist.trials == pytest.approx(PAPER_TRIALS, abs=5)
        assert dist.mode == 4

    def test_paper_d1_grows_with_n(self):
        """Criterion 1: d=1 modes grow ~linearly in log n."""
        modes = [
            paper_distribution(PAPER_TABLE1[n][1]).mode
            for n in (2**8, 2**12, 2**16, 2**20, 2**24)
        ]
        assert modes == sorted(modes)
        diffs = [b - a for a, b in zip(modes, modes[1:])]
        assert all(3 <= d <= 5 for d in diffs)  # ~1 per factor 2^4

    def test_paper_d2_flat(self):
        """Criterion 2: d>=2 modes are tiny and nearly flat."""
        for d in (2, 3, 4):
            modes = [
                paper_distribution(PAPER_TABLE1[n][d]).mode
                for n in PAPER_TABLE1
            ]
            assert max(modes) - min(modes) <= 2
            assert max(modes) <= 5

    def test_paper_strategy_ordering(self):
        """Criterion 4: smaller <= left <= random <= larger (means)."""
        for n in PAPER_TABLE3:
            means = {
                s: paper_distribution(PAPER_TABLE3[n][s]).mean
                for s in PAPER_TABLE3[n]
            }
            assert means["arc-smaller"] <= means["arc-random"] + 0.05
            assert means["arc-left"] <= means["arc-larger"] + 0.05
            assert means["arc-random"] <= means["arc-larger"] + 0.05


class TestSimulationMatchesPaperN256:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_table1_mode_matches(self, table1_n256, d):
        ours = table1_n256[d]
        paper_mode = paper_distribution(PAPER_TABLE1[2**8][d]).mode
        assert abs(ours.mode - paper_mode) <= 1

    def test_table1_d1_range_matches(self, table1_n256):
        ours = table1_n256[1]
        paper = paper_distribution(PAPER_TABLE1[2**8][1])
        assert abs(ours.mode - paper.mode) <= 2
        assert abs(ours.mean - paper.mean) <= 1.5

    @pytest.mark.parametrize("d", [2, 3])
    def test_table1_frequencies_compatible(self, table1_n256, d):
        """Per-value frequencies overlap at 99% confidence."""
        ours = table1_n256[d]
        paper_cell = PAPER_TABLE1[2**8][d]
        for load, pct in paper_cell.items():
            if pct < 5.0:
                continue  # sub-5% cells are noise at 120 trials
            assert frequencies_compatible(
                ours.counts.get(load, 0),
                ours.trials,
                round(pct * 10),
                PAPER_TRIALS,
            ), (load, pct, ours.counts)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_table2_mode_matches(self, table2_n256, d):
        ours = table2_n256[d]
        paper_mode = paper_distribution(PAPER_TABLE2[2**8][d]).mode
        assert abs(ours.mode - paper_mode) <= 1

    def test_table2_d1_milder_than_table1(self, table1_n256, table2_n256):
        """Criterion 3: torus d=1 tail is milder than the ring's."""
        assert table2_n256[1].mean < table1_n256[1].mean


class TestSimulationStrategyOrdering:
    def test_smaller_beats_larger(self):
        """Criterion 4 in our own simulation at n = 2^10."""
        n, trials = 2**10, 100
        means = {}
        for name, (strategy, part) in {
            "smaller": ("smaller", False),
            "larger": ("larger", False),
            "left": ("first", True),
        }.items():
            dist = run_cell(
                CellSpec("ring", n, 2, strategy=strategy, partitioned=part),
                trials,
                seed=55,
            )
            means[name] = dist.mean
        assert means["smaller"] < means["larger"]
        assert means["left"] < means["larger"]


class TestTableCells:
    @pytest.mark.parametrize("space, n, d, trials, seed", TABLE_CELLS)
    def test_mode_matches(self, space, n, d, trials, seed):
        dist = run_cell(CellSpec(space, n, d), trials, seed=seed)
        table = PAPER_TABLE1 if space == "ring" else PAPER_TABLE2
        paper_mode = paper_distribution(table[n][d]).mode
        assert abs(dist.mode - paper_mode) <= (2 if d == 1 else 1)

    @pytest.mark.parametrize("name", list(STRATEGIES))
    def test_table3_mode_matches(self, name):
        # seeded by position: hash(name) is salted per interpreter
        dist = _table3_cell(name, TABLE_SEED + 40 + list(STRATEGIES).index(name))
        paper_mode = paper_distribution(PAPER_TABLE3[2**8][name]).mode
        assert abs(dist.mode - paper_mode) <= 1

    def test_table3_ordering(self):
        """The paper's Section 4 finding: smaller <= random <= larger and
        left <= larger in mean max load, within 0.15."""
        means = {
            name: _table3_cell(name, TABLE_SEED + 100 + i).mean
            for i, name in enumerate(STRATEGIES)
        }
        assert means["arc-smaller"] <= means["arc-random"] + 0.15
        assert means["arc-random"] <= means["arc-larger"] + 0.15
        assert means["arc-left"] <= means["arc-larger"] + 0.15
