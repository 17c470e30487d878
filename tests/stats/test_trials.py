"""Tests for the deterministic trial runner."""

import tracemalloc

import numpy as np
import pytest
from helpers import build_space, padded_histograms

from repro.core.engine import run_sequential
from repro.core.loads import nu_profile
from repro.core.strategies import TieBreak
from repro.kernels import available_backends, get_backend
from repro.stats.distributions import MaxLoadDistribution
from repro.stats.trials import (
    CellSpec,
    canonical_cell,
    cell_seed,
    run_cell,
    run_cell_hists,
    run_cell_profile,
    run_trial_map,
)
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


def _draws(context, seed):
    """A trial for the pool tests: ``context`` draws from its own seed."""
    return np.random.default_rng(seed).integers(0, 1 << 30, size=context).tolist()


class TestRunTrialMap:
    @pytest.mark.parametrize("n_jobs", [2, None])
    def test_pool_matches_serial(self, n_jobs):
        serial = run_trial_map(_draws, 3, trials=6, seed=11, n_jobs=1)
        assert run_trial_map(_draws, 3, trials=6, seed=11, n_jobs=n_jobs) == serial


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

    def test_partitioned_must_be_bool(self):
        with pytest.raises(TypeError, match="partitioned must be a bool"):
            CellSpec("ring", 64, 2, partitioned="no")
        assert CellSpec("ring", 64, 2, partitioned=np.bool_(True)).partitioned

    def test_with_update(self):
        spec = CellSpec("ring", 64, 2).with_(d=3)
        assert spec.d == 3 and spec.n == 64

    def test_label_contents(self):
        label = CellSpec(
            "torus", 64, 2, m=100, strategy="smaller", dim=3
        ).label()
        assert "torus" in label and "m=100" in label
        assert "smaller" in label and "dim=3" in label


class TestCellIdentity:
    """One cell, one identity: its seed and cache key come from it."""

    def test_canonical_fields(self):
        assert canonical_cell(CellSpec("ring", 256, 2, strategy="Smaller")) == {
            "space": "ring", "n": 256, "m": 256, "d": 2, "strategy": "smaller",
            "partitioned": False,
        }
        assert canonical_cell(CellSpec("torus", 64, 3, m=80, dim=3))["dim"] == 3

    @pytest.mark.parametrize("same", [
        CellSpec("ring", 256, 2, m=256),
        CellSpec("ring", 256, 2, dim=5),
        CellSpec("ring", 256, 2, strategy=TieBreak.RANDOM),
    ])
    def test_same_cell_same_seed(self, same):
        assert cell_seed(same, 11) == cell_seed(CellSpec("ring", 256, 2), 11)

    @pytest.mark.parametrize("other", [
        CellSpec("ring", 512, 2),
        CellSpec("ring", 256, 3),
        CellSpec("ring", 256, 2, m=300),
        CellSpec("ring", 256, 2, strategy="larger"),
        CellSpec("ring", 256, 2, partitioned=True),
        CellSpec("torus", 256, 2),
        CellSpec("uniform", 256, 2),
    ])
    def test_other_cell_other_seed(self, other):
        assert cell_seed(other, 11) != cell_seed(CellSpec("ring", 256, 2), 11)

    def test_torus_dim_and_master_seed_matter(self):
        spec = CellSpec("torus", 64, 2)
        assert cell_seed(spec, 11) != cell_seed(spec.with_(dim=3), 11)
        assert cell_seed(spec, 11) != cell_seed(spec, 12)

    def test_trials_are_prefix_stable(self):
        """A cell's first trials do not depend on its trial count."""
        spec = CellSpec("ring", 512, 2)
        seed = cell_seed(spec, 3)
        short, long = run_cell_hists(spec, 4, seed), run_cell_hists(spec, 9, seed)
        width = short.shape[1]
        np.testing.assert_array_equal(short, long[:4, :width])
        assert not long[:4, width:].any()


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


#: (space, n, m) of the profile check (m None: m = n); ring cells keep
#: the ids they had before torus and uniform cells joined them.  The
#: heavily loaded ring's trials pass 255 balls a bin, the most the
#: kernel's byte scratch holds, so the cell takes the generic route, and
#: its histograms pass 256 levels.
_SPACE_SIZES = [
    pytest.param(space, n, None, id=str(n) if space == "ring" else f"{space}-{n}")
    for space in ("ring", "torus", "uniform")
    for n in (1, 2, 1023, 3000)
] + [pytest.param("ring", 16, 300 * 16, id="16-m4800")]


@pytest.fixture(scope="session")
def _torus_areas() -> dict:
    """Voronoi areas by torus points, for the whole session."""
    return {}


@pytest.fixture
def shared_torus_areas(monkeypatch, _torus_areas):
    """Compute each torus's Voronoi areas once per session.

    A cell's tori depend only on n and the seed, so the reference and
    every strategy/d/partitioned case of one n share them; the areas
    come from the real function either way.
    """
    from repro.geo2d import voronoi

    compute = voronoi.toroidal_voronoi_areas

    def cached(points):
        key = np.ascontiguousarray(points).tobytes()
        if key not in _torus_areas:
            _torus_areas[key] = compute(points)
        return _torus_areas[key].copy()

    monkeypatch.setattr(voronoi, "toroidal_voronoi_areas", cached)


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

    @pytest.mark.parametrize("partitioned", [False, True])
    @pytest.mark.parametrize("strategy", [s.value for s in TieBreak])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("space, n, m", _SPACE_SIZES)
    def test_profile_engines_bit_identical(
        self, space, n, m, d, strategy, partitioned, shared_torus_areas
    ):
        spec = CellSpec(space, n, d, m=m, strategy=strategy,
                        partitioned=partitioned)
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


@pytest.mark.skipif(
    not available_backends()["cext"] or get_backend("cext").space_trials is None,
    reason="no compiled space_trials kernel on this machine",
)
class TestRunCellMemory:
    """Ring and torus cells keep their loads in kernel scratch."""

    @pytest.mark.parametrize("space, n, run", [
        pytest.param("ring", 1 << 16, run_cell, id="ring-65536"),
        pytest.param("torus", 1 << 14, run_cell, id="torus-16384"),
        pytest.param("ring", 1 << 16, run_cell_profile,
                     id="ring-65536-profile"),
        pytest.param("torus", 1 << 14, run_cell_profile,
                     id="torus-16384-profile"),
    ])
    def test_traced_peak_stays_under_a_megabyte(self, monkeypatch, space, n,
                                                 run):
        """16 trials' (16, n) int64 loads would be 8 MB (ring) and 2 MB
        (torus); only their load histograms leave the kernel, for a
        max-load cell and a profile alike."""
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "cext")
        spec = CellSpec(space, n, 2)
        run(spec, 16, seed=0)  # compiled library, lazy imports
        tracemalloc.start()
        try:
            run(spec, 16, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"{peak / 2**20:.2f} MB traced"

    @pytest.mark.parametrize("space", ["ring", "torus"])
    def test_cell_is_one_kernel_call(self, monkeypatch, space):
        """Max-load and profile cells reach the kernel whole, however
        small their fused_trial_chunk: here 1, where each trial would be
        a call of its own.  The maxima and the profile equal the
        sequential reference's."""
        from repro.core import multitrial

        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "cext")
        spec = CellSpec(space, 300, 2)
        loads = _sequential_loads(spec, 6, 4)
        maxima = [row.max() for row in loads]
        counts = padded_histograms(loads).sum(axis=0)
        profile = np.cumsum(counts[::-1])[::-1] / 6
        calls = []
        real = multitrial._run_fused_ring

        def run_fused_ring(spaces, n, m, d, strategy, rngs, *args, **kwargs):
            calls.append(len(rngs))
            return real(spaces, n, m, d, strategy, rngs, *args, **kwargs)

        monkeypatch.setattr(multitrial, "_run_fused_ring", run_fused_ring)
        monkeypatch.setattr(multitrial, "fused_trial_chunk", lambda n, m, d: 1)
        dist = run_cell(spec, 6, seed=4, threads=2)
        assert dist.counts == MaxLoadDistribution.from_samples(maxima).counts
        assert np.array_equal(run_cell_profile(spec, 6, seed=4, threads=2),
                              profile)
        assert calls == [6, 6]
