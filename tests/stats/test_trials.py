"""Tests for the deterministic trial runner."""

import numpy as np
import pytest
from helpers import build_space

from repro.core.engine import run_sequential
from repro.core.loads import nu_profile
from repro.core.strategies import TieBreak
from repro.stats.distributions import MaxLoadDistribution
from repro.stats.trials import CellSpec, run_cell
from repro.utils.rng import spawn_seed_sequences


def _sequential_loads(spec, trials, seed):
    """Each trial's loads through the reference engine, seeded as run_cell does."""
    out = []
    for ss in spawn_seed_sequences(seed, trials):
        rng = np.random.default_rng(ss)
        space = build_space(spec.space, spec.n, rng, dim=spec.dim)
        loads, _ = run_sequential(
            space, spec.balls, spec.d, TieBreak.coerce(spec.strategy), rng,
            partitioned=spec.partitioned,
        )
        out.append(loads)
    return out


class TestCellSpec:
    def test_valid(self):
        spec = CellSpec("ring", 64, 2)
        assert spec.balls == 64

    def test_explicit_m(self):
        assert CellSpec("ring", 64, 2, m=128).balls == 128

    def test_rejects_bad_space(self):
        with pytest.raises(ValueError, match="space"):
            CellSpec("cube", 64, 2)

    def test_rejects_bad_strategy(self):
        with pytest.raises(ValueError, match="tie-break"):
            CellSpec("ring", 64, 2, strategy="leftish")

    def test_with_update(self):
        spec = CellSpec("ring", 64, 2).with_(d=3)
        assert spec.d == 3 and spec.n == 64

    def test_label_contents(self):
        label = CellSpec(
            "torus", 64, 2, m=100, strategy="smaller", dim=3
        ).label()
        assert "torus" in label and "m=100" in label
        assert "smaller" in label and "dim=3" in label


class TestSimulateMaxLoad:
    """Single-trial cells: one trial's max load, checked against the reference."""

    def test_deterministic(self):
        spec = CellSpec("ring", 128, 2)
        ss = np.random.SeedSequence(1)
        assert run_cell(spec, 1, ss).counts == run_cell(
            spec, 1, np.random.SeedSequence(1)
        ).counts

    def test_different_seeds_vary(self):
        spec = CellSpec("ring", 256, 1)
        vals = {run_cell(spec, 1, s).mode for s in range(8)}
        assert len(vals) > 1

    @pytest.mark.parametrize("space", ["ring", "torus", "uniform"])
    def test_all_spaces(self, space):
        spec = CellSpec(space, 64, 2)
        (loads,) = _sequential_loads(spec, 1, 0)
        assert run_cell(spec, 1, 0).counts == {int(loads.max()): 1}

    def test_partitioned_strategy(self):
        spec = CellSpec("ring", 64, 2, strategy="first", partitioned=True)
        (loads,) = _sequential_loads(spec, 1, 0)
        assert run_cell(spec, 1, 0).counts == {int(loads.max()): 1}


class TestRunCell:
    def test_distribution_totals(self):
        dist = run_cell(CellSpec("ring", 64, 2), trials=10, seed=0)
        assert isinstance(dist, MaxLoadDistribution)
        assert dist.trials == 10

    def test_deterministic_given_seed(self):
        a = run_cell(CellSpec("ring", 64, 2), trials=6, seed=3)
        b = run_cell(CellSpec("ring", 64, 2), trials=6, seed=3)
        assert a.counts == b.counts

    def test_parallel_matches_serial(self):
        """DESIGN decision 3: parallelism must not affect results."""
        spec = CellSpec("ring", 128, 2)
        serial = run_cell(spec, trials=8, seed=5, threads=1)
        parallel = run_cell(spec, trials=8, seed=5, threads=2)
        assert serial.counts == parallel.counts

    def test_trial_prefix_stability(self):
        """First k trials identical regardless of total trial count."""
        spec = CellSpec("ring", 64, 2)
        few = run_cell(spec, trials=4, seed=7)
        many = run_cell(spec, trials=12, seed=7)
        # the 4-trial histogram must be dominated by the 12-trial one
        for k, v in few.counts.items():
            assert many.counts.get(k, 0) >= 0  # existence
        assert sum(many.counts.values()) == 12

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            run_cell(CellSpec("ring", 8, 2), trials=0)

    def test_spec_attached(self):
        spec = CellSpec("ring", 64, 2)
        dist = run_cell(spec, trials=3, seed=1)
        assert dist.spec == spec


class TestRunCellProfile:
    def test_profile_shape_and_monotone(self):
        from repro.stats.trials import run_cell_profile
        import numpy as np

        spec = CellSpec("ring", 256, 2)
        profile = run_cell_profile(spec, trials=5, seed=1)
        assert profile[0] == 256  # nu_0 = n in every trial
        assert np.all(np.diff(profile) <= 0)

    def test_profile_matches_fluid_on_uniform(self):
        """Empirical s_i tracks the ODE for uniform bins (d = 2)."""
        import numpy as np

        from repro.stats.trials import run_cell_profile
        from repro.theory.fluid import fluid_limit_tails

        n = 4096
        profile = run_cell_profile(CellSpec("uniform", n, 2), trials=6, seed=2)
        s = fluid_limit_tails(2, 1.0)
        for i in (1, 2, 3):
            assert profile[i] / n == pytest.approx(s[i], abs=0.02)

    def test_geometric_profile_heavier_than_uniform(self):
        """The ring's non-uniform arcs thicken every tail level."""
        from repro.stats.trials import run_cell_profile

        n = 4096
        ring = run_cell_profile(CellSpec("ring", n, 2), trials=6, seed=3)
        unif = run_cell_profile(CellSpec("uniform", n, 2), trials=6, seed=3)
        assert ring[3] > unif[3]

    def test_conserves_ball_count(self):
        """sum_i nu_i = m (each ball counted once per height level)."""
        from repro.stats.trials import run_cell_profile

        spec = CellSpec("ring", 128, 2, m=300)
        profile = run_cell_profile(spec, trials=4, seed=4)
        assert profile[1:].sum() == pytest.approx(300)


class TestEngineSelection:
    """The fused cell path gives the sequential reference's results."""

    @pytest.mark.parametrize(
        "spec",
        [
            CellSpec("ring", 96, 2),
            CellSpec("torus", 64, 3, m=150),
            CellSpec("uniform", 64, 2),
            CellSpec("ring", 80, 2, strategy="smaller"),
            CellSpec("ring", 80, 2, strategy="first", partitioned=True),
        ],
        ids=lambda s: s.label(),
    )
    def test_all_engines_bit_identical(self, spec):
        reference = MaxLoadDistribution.from_samples(
            loads.max() for loads in _sequential_loads(spec, 11, 7)
        )
        assert run_cell(spec, trials=11, seed=7).counts == reference.counts

    def test_profile_engines_bit_identical(self):
        from repro.stats.trials import run_cell_profile

        spec = CellSpec("ring", 96, 2)
        profiles = [nu_profile(loads) for loads in _sequential_loads(spec, 9, 3)]
        reference = np.zeros(max(p.size for p in profiles))
        for p in profiles:
            reference[: p.size] += p
        assert np.array_equal(run_cell_profile(spec, 9, seed=3), reference / 9)

    def test_profile_parallel_matches_serial(self):
        from repro.stats.trials import run_cell_profile

        spec = CellSpec("ring", 64, 2)
        serial = run_cell_profile(spec, 6, seed=1, threads=1)
        threaded = run_cell_profile(spec, 6, seed=1, threads=2)
        assert np.array_equal(serial, threaded)

    def test_single_trial_fused_matches(self):
        spec = CellSpec("ring", 64, 2)
        (loads,) = _sequential_loads(spec, 1, 9)
        assert run_cell(spec, trials=1, seed=9).counts == {int(loads.max()): 1}
