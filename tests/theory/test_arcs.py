"""Tests for arc-length laws (Lemmas 4-6) against exact spacing theory."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ring import RingSpace
from repro.theory.arcs import (
    arc_survival,
    expected_arcs_at_least,
    expected_max_arc,
    lemma4_tail,
    lemma5_tail,
    lemma6_failure_probability_is_small,
    lemma6_in_window,
    lemma6_sum_bound,
    longest_arc_bound,
    longest_arc_exceedance_probability,
    sample_spacings,
)


class TestArcSurvival:
    def test_exact_small_case(self):
        # n=2: spacing ~ U(0,1) survival 1-x... actually (1-x)^{n-1}
        assert arc_survival(0.3, 2) == pytest.approx(0.7)

    def test_boundaries(self):
        assert arc_survival(0.0, 10) == 1.0
        assert arc_survival(1.0, 10) == 0.0

    def test_monte_carlo_agreement(self):
        n = 50
        spacings = sample_spacings(n, 4000, seed=0)
        for x in (0.5 / n, 2.0 / n, 5.0 / n):
            emp = float((spacings[:, 0] >= x).mean())
            assert emp == pytest.approx(arc_survival(x, n), abs=0.03)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            arc_survival(1.5, 3)


class TestExpectedArcs:
    def test_exact_value(self):
        n, c = 100, 3.0
        assert expected_arcs_at_least(c, n) == pytest.approx(
            n * (1 - c / n) ** (n - 1)
        )

    def test_bound_dominates_exact_for_c_ge_2(self):
        for n in (10, 100, 10_000):
            for c in (2.0, 3.0, 8.0):
                if c <= n:
                    assert expected_arcs_at_least(c, n, bound=True) >= (
                        expected_arcs_at_least(c, n)
                    )

    def test_bound_requires_c_ge_2(self):
        with pytest.raises(ValueError, match="c >= 2"):
            expected_arcs_at_least(1.0, 100, bound=True)

    def test_monte_carlo(self):
        n = 200
        spacings = sample_spacings(n, 3000, seed=1)
        emp = float((spacings >= 3.0 / n).sum(axis=1).mean())
        assert emp == pytest.approx(expected_arcs_at_least(3.0, n), rel=0.05)


class TestLemma4And5:
    def test_lemma5_weaker_than_lemma4(self):
        """The martingale tail must dominate the negative-dependence one."""
        for n in (100, 1000, 100_000):
            for c in (2.0, 4.0, 8.0):
                assert lemma5_tail(c, n) >= lemma4_tail(c, n)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            lemma4_tail(1.0, 100)
        with pytest.raises(ValueError):
            lemma4_tail(101.0, 100)
        with pytest.raises(ValueError):
            lemma5_tail(1.9, 100)

    def test_lemma4_dominates_monte_carlo(self):
        """Empirical exceedance frequency must stay below the bound."""
        n, c, trials = 500, 3.0, 2000
        spacings = sample_spacings(n, trials, seed=2)
        counts = (spacings >= c / n).sum(axis=1)
        exceed = float((counts >= 2 * n * math.exp(-c)).mean())
        # 3-sigma slack on the empirical frequency
        slack = 3 * math.sqrt(max(exceed, 1e-4) / trials)
        assert exceed <= lemma4_tail(c, n) + slack

    def test_tails_decrease_in_n(self):
        assert lemma4_tail(3.0, 10_000) < lemma4_tail(3.0, 100)


class TestLemma6:
    def test_bound_value(self):
        assert lemma6_sum_bound(10, 1000) == pytest.approx(
            2 * (10 / 1000) * math.log(100)
        )

    def test_full_selection_returns_one(self):
        assert lemma6_sum_bound(50, 50) == 1.0

    def test_window(self):
        n = 2**16
        assert lemma6_in_window(int(math.log(n) ** 2) + 1, n)
        assert not lemma6_in_window(2, n)
        assert not lemma6_in_window(n // 2, n)

    def test_rejects_a_gt_n(self):
        with pytest.raises(ValueError):
            lemma6_sum_bound(11, 10)

    def test_monte_carlo_bound_holds_in_window(self):
        n = 4096
        a = 200  # in window: (ln 4096)^2 ~ 69, n/64 = 64 -> window empty!
        # note: for n = 4096 the window is empty ((ln n)^2 > n/64); use
        # a larger n where it is not
        n = 2**16
        a = 150  # (ln n)^2 ~ 123 <= a <= n/64 = 1024
        assert lemma6_in_window(a, n)
        spacings = sample_spacings(n, 300, seed=3)
        top = np.sort(spacings, axis=1)[:, -a:]
        sums = top.sum(axis=1)
        bound = lemma6_sum_bound(a, n)
        assert float((sums > bound).mean()) <= 0.01

    def test_failure_probability_caps_at_one(self):
        """At laptop-scale n the bound is vacuous (the paper's constants
        are asymptotic); the function must still be a probability."""
        assert 0 <= lemma6_failure_probability_is_small(400, 2**20) <= 1.0

    def test_failure_probability_small_at_asymptotic_n(self):
        """Where (ln n)^2 is large the recursion's terms all vanish."""
        n = 2**4096  # ln n ~ 2839, (ln n)^2 ~ 8.06e6
        a = 10_000_000
        assert lemma6_in_window(a, n)
        assert lemma6_failure_probability_is_small(a, n) < 1e-9

    def test_failure_probability_decreasing_in_a(self):
        n = 2**4096
        p1 = lemma6_failure_probability_is_small(9_000_000, n)
        p2 = lemma6_failure_probability_is_small(20_000_000, n)
        assert p2 <= p1


class TestLongestArc:
    def test_bound_formula(self):
        assert longest_arc_bound(1000) == pytest.approx(4 * math.log(1000) / 1000)

    def test_single_point(self):
        assert longest_arc_bound(1) == 1.0

    def test_exceedance_below_cubed_inverse(self):
        for n in (64, 1024, 2**20):
            assert longest_arc_exceedance_probability(n) <= 1 / n**3

    def test_expected_max_arc_harmonic(self):
        # H_4 / 4 = (1 + 1/2 + 1/3 + 1/4) / 4
        assert expected_max_arc(4) == pytest.approx((25 / 12) / 4)

    def test_expected_max_matches_simulation(self):
        n = 256
        spacings = sample_spacings(n, 4000, seed=4)
        emp = float(spacings.max(axis=1).mean())
        assert emp == pytest.approx(expected_max_arc(n), rel=0.03)

    def test_ring_space_consistency(self):
        """RingSpace arcs follow the same law as sampled spacings."""
        maxima = [
            RingSpace.random(128, seed=s).region_measures().max()
            for s in range(300)
        ]
        assert float(np.mean(maxima)) == pytest.approx(
            expected_max_arc(128), rel=0.08
        )


class TestSampleSpacings:
    def test_shape_and_simplex(self):
        s = sample_spacings(10, 7, seed=0)
        assert s.shape == (7, 10)
        assert np.allclose(s.sum(axis=1), 1.0)
        assert np.all(s > 0)

    def test_lemma4_count_at_n2048(self):
        n = 2048
        spacings = sample_spacings(n, 200, 4)
        assert spacings.shape == (200, n)
        mean_count = float((spacings >= 3.0 / n).sum(axis=1).mean())
        assert mean_count < 2 * expected_arcs_at_least(3.0, n, bound=True)

    @given(st.integers(2, 100))
    @settings(max_examples=20, deadline=None)
    def test_always_on_simplex(self, n):
        s = sample_spacings(n, 3, seed=1)
        assert np.allclose(s.sum(axis=1), 1.0)


class TestPoissonApproximation:
    def test_matches_simulation(self):
        from repro.theory.arcs import arc_count_poisson_tail

        n, c, trials = 300, 4.0, 4000
        spacings = sample_spacings(n, trials, seed=9)
        counts = (spacings >= c / n).sum(axis=1)
        mean = float(counts.mean())
        for k in (int(mean), int(mean) + 3):
            emp = float((counts >= k).mean())
            approx = arc_count_poisson_tail(c, n, k)
            assert emp == pytest.approx(approx, abs=0.05)

    def test_certain_at_zero(self):
        from repro.theory.arcs import arc_count_poisson_tail

        assert arc_count_poisson_tail(3.0, 100, 0) == 1.0

    def test_sharper_than_lemma4_at_doubling(self):
        """Poisson tail at 2 E[N_c] should undercut Lemma 4's bound."""
        from repro.theory.arcs import arc_count_poisson_tail

        n, c = 10_000, 4.0
        threshold = int(2 * n * math.exp(-c))
        assert arc_count_poisson_tail(c, n, threshold) < lemma4_tail(c, n)

    def test_rejects_negative_k(self):
        from repro.theory.arcs import arc_count_poisson_tail

        with pytest.raises(ValueError):
            arc_count_poisson_tail(3.0, 100, -1)
