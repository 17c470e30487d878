"""Tests for experiment drivers at miniature scale."""

import numpy as np
import pytest

from repro.experiments import get_experiment, list_experiments
from repro.experiments.ablations import dimension_sweep, mn_sweep, tiebreak_sweep
from repro.experiments.lemma_validation import _count_empty_sectors
from repro.experiments.lemma_validation import run as run_lemmas
from repro.experiments.report import ExperimentReport, TextReport
from repro.experiments.table1 import run as run_table1
from repro.experiments.table2 import run as run_table2
from repro.experiments.table3 import run as run_table3
from repro.experiments.theory_check import run as run_theory
from repro.theory.voronoi_tails import expected_large_regions_bound


SMALL = dict(trials=5, n_values=(2**7,))


class TestRegistry:
    def test_lists_all(self):
        names = list_experiments()
        for expected in (
            "table1", "table2", "table3", "fig1_lemma8", "theory_vs_sim",
            "ablation_tiebreak", "ablation_mn", "ablation_dim",
        ):
            assert expected in names

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("table99")

    def test_get_returns_callable(self):
        assert callable(get_experiment("table1"))


class TestTableDrivers:
    def test_table1_structure(self):
        rep = run_table1(**SMALL)
        assert isinstance(rep, ExperimentReport)
        assert set(rep.cells) == {(2**7, d) for d in (1, 2, 3, 4)}
        for dist in rep.cells.values():
            assert dist.trials == 5
        assert "Table 1" in rep.render()

    def test_table1_d_ordering(self):
        """More choices -> no worse max load (statistically certain
        even at 5 trials for the d=1 vs d=4 gap)."""
        rep = run_table1(trials=5, n_values=(2**9,))
        modes = rep.modes()
        assert modes[(2**9, 4)] < modes[(2**9, 1)]

    def test_table2_structure(self):
        rep = run_table2(**SMALL)
        assert set(rep.cells) == {(2**7, d) for d in (1, 2, 3, 4)}
        assert "torus" in rep.render()

    def test_table3_structure(self):
        rep = run_table3(**SMALL)
        assert {c for (_, c) in rep.cells} == {
            "arc-larger", "arc-random", "arc-left", "arc-smaller",
        }

    def test_table3_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategies"):
            run_table3(trials=2, n_values=(64,), strategies=["arc-up"])

    def test_determinism(self):
        a = run_table1(**SMALL)
        b = run_table1(**SMALL)
        assert {k: v.counts for k, v in a.cells.items()} == {
            k: v.counts for k, v in b.cells.items()
        }

    def test_summary_lines(self):
        rep = run_table1(**SMALL)
        lines = rep.summary_lines()
        assert len(lines) == 4
        assert all("mode=" in line for line in lines)


class TestOtherDrivers:
    def test_lemma_validation(self):
        rep = run_lemmas(n=256, trials=3, ring_trials=50)
        assert isinstance(rep, TextReport)
        assert rep.data["sector"]["sector_test_failures"] == 0
        assert "Lemma 8" in rep.render()

    def test_empty_sector_census_within_lemma8_bound(self):
        # one instance against E[Z] from Lemma 8's chain, with 1.5x slack
        n = 2048
        pts = np.random.default_rng(2).random((n, 2))
        z = _count_empty_sectors(pts, 3.0, np.random.default_rng(3))
        assert z <= 1.5 * expected_large_regions_bound(3.0, n)

    def test_theory_check(self):
        rep = run_theory(n_values=(2**8,), d_values=(2,), trials=4)
        assert (2**8, 2) in rep.data
        entry = rep.data[(2**8, 2)]
        assert entry["ring_mode"] >= entry["fluid"] - 2

    def test_tiebreak_sweep(self):
        rep = tiebreak_sweep(n=2**7, d_values=(2,), trials=4)
        assert len(rep.cells) == 4

    def test_mn_sweep_monotone(self):
        rep = mn_sweep(n=2**7, ratios=(1, 4), d_values=(2,), trials=4)
        assert rep.cells[(4, 2)].mean > rep.cells[(1, 2)].mean

    def test_dimension_sweep(self):
        rep = dimension_sweep(n=2**7, dims=(1, 2), d_values=(2,), trials=4)
        assert len(rep.cells) == 2
        # both dimensions should show the tiny two-choice maxima
        assert rep.cells[(1, 2)].max <= 6
        assert rep.cells[(2, 2)].max <= 6


class TestDynamicChurn:
    def test_structure(self):
        from repro.experiments.dynamic_churn import run as run_dynamic

        rep = run_dynamic(trials=3, n_values=(64,), scenarios=("steady", "bursts"))
        assert isinstance(rep, ExperimentReport)
        assert set(rep.cells) == {(64, "steady"), (64, "bursts")}
        for dist in rep.cells.values():
            assert dist.trials == 3
        assert "Dynamic churn" in rep.render()

    def test_registered(self):
        assert "dynamic_churn" in list_experiments()
        assert callable(get_experiment("dynamic_churn"))

    def test_determinism(self):
        from repro.experiments.dynamic_churn import run as run_dynamic

        kwargs = dict(trials=3, n_values=(64,), scenarios=("poisson",))
        a = run_dynamic(**kwargs)
        b = run_dynamic(**kwargs)
        assert {k: v.counts for k, v in a.cells.items()} == {
            k: v.counts for k, v in b.cells.items()
        }

    def test_rejects_unknown_scenario(self):
        from repro.experiments.dynamic_churn import run as run_dynamic

        with pytest.raises(ValueError, match="unknown scenarios"):
            run_dynamic(trials=2, n_values=(64,), scenarios=("flood",))

    def test_storm_scenario_runs(self):
        from repro.experiments.dynamic_churn import run as run_dynamic

        rep = run_dynamic(trials=2, n_values=(64,), scenarios=("storm",))
        dist = rep.cells[(64, "storm")]
        assert dist.trials == 2 and dist.min >= 1


class TestGeometrySweep:
    def test_structure_and_flattening(self):
        from repro.experiments.ablations import geometry_sweep

        rep = geometry_sweep(n=2**8, d_values=(1, 2), trials=10)
        assert len(rep.cells) == 8
        # d = 2 flattens every geometry into a narrow band
        d2_modes = [rep.cells[(k, 2)].mode for k in ("uniform", "ring", "torus", "can")]
        assert max(d2_modes) - min(d2_modes) <= 1
        # d = 1 separates them: CAN (dyadic) is the most imbalanced
        assert rep.cells[("can", 1)].mean >= rep.cells[("uniform", 1)].mean
