import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normbase import metrics
from normbase.errors import ConfigError, DataError, DimensionError, UndefinedMetricError


# Plain-Python reference implementations, written independently of the
# library code so the two can disagree.

def ref_rmse(a, p):
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, p)) / len(a))


def ref_cv(a, p):
    return ref_rmse(a, p) / (sum(a) / len(a))


def ref_r2(a, p):
    mean = sum(a) / len(a)
    ss_res = sum((x - y) ** 2 for x, y in zip(a, p))
    ss_tot = sum((x - mean) ** 2 for x in a)
    return 1.0 - ss_res / ss_tot


def ref_nmbe(a, p, adj=1):
    mean = sum(a) / len(a)
    return sum(x - y for x, y in zip(a, p)) / ((len(a) - adj) * mean)


class TestHandFixture:
    A = np.array([100.0, 200.0, 300.0])
    P = np.array([110.0, 190.0, 310.0])

    def test_rmse(self):
        assert metrics.rmse(self.A, self.P) == 10.0

    def test_cv_rmse(self):
        assert metrics.cv_rmse(self.A, self.P) == 0.05

    def test_r_squared(self):
        assert metrics.r_squared(self.A, self.P) == pytest.approx(0.985, rel=1e-15)

    def test_nmbe(self):
        assert metrics.nmbe(self.A, self.P) == pytest.approx(-0.025, rel=1e-15)

    def test_nmbe_sign_convention(self):
        # over-prediction must push NMBE negative
        assert metrics.nmbe(np.array([1.0, 1.0, 1.0]), np.array([2.0, 2.0, 2.0])) < 0


def test_matches_reference_on_random_pairs():
    rng = np.random.default_rng(42)
    for _ in range(300):
        n = int(rng.integers(2, 60))
        a = rng.uniform(10.0, 500.0, n)
        p = a + rng.normal(0.0, 25.0, n)
        assert metrics.rmse(a, p) == pytest.approx(ref_rmse(a, p), rel=1e-12)
        assert metrics.cv_rmse(a, p) == pytest.approx(ref_cv(a, p), rel=1e-12)
        assert metrics.r_squared(a, p) == pytest.approx(ref_r2(a, p), rel=1e-12)
        assert metrics.nmbe(a, p) == pytest.approx(ref_nmbe(a, p), rel=1e-12)
        assert metrics.nmbe(a, p, p=0) == pytest.approx(ref_nmbe(a, p, 0), rel=1e-12)


class TestValidation:
    def test_empty(self):
        with pytest.raises(DataError):
            metrics.rmse([], [])

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            metrics.rmse([1.0, 2.0], [1.0])

    def test_non_finite(self):
        with pytest.raises(DataError):
            metrics.rmse([1.0, np.nan], [1.0, 2.0])

    def test_cv_zero_mean(self):
        with pytest.raises(UndefinedMetricError):
            metrics.cv_rmse([1.0, -1.0], [0.0, 0.0])

    def test_r2_zero_variance(self):
        with pytest.raises(UndefinedMetricError):
            metrics.r_squared([5.0, 5.0, 5.0], [4.0, 5.0, 6.0])

    def test_nmbe_needs_more_rows_than_p(self):
        with pytest.raises(DataError):
            metrics.nmbe([1.0], [2.0], p=1)

    def test_nmbe_negative_p(self):
        with pytest.raises(ConfigError, match="^p must be >= 0, not -1$"):
            metrics.nmbe([1.0, 2.0], [1.0, 2.0], p=-1)


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@settings(deadline=None, max_examples=50)
@given(
    st.lists(st.tuples(finite, finite), min_size=2, max_size=30),
    st.floats(min_value=0.1, max_value=1e3),
)
def test_rmse_scale_equivariance(pairs, k):
    a = np.array([x for x, _ in pairs])
    p = np.array([y for _, y in pairs])
    assert metrics.rmse(k * a, k * p) == pytest.approx(k * metrics.rmse(a, p), rel=1e-9)


@settings(deadline=None, max_examples=50)
@given(
    st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=2, max_size=30),
    st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=2, max_size=30),
    st.floats(min_value=0.1, max_value=1e3),
)
def test_cv_and_nmbe_scale_invariance(a_vals, p_vals, k):
    n = min(len(a_vals), len(p_vals))
    a, p = np.array(a_vals[:n]), np.array(p_vals[:n])
    assert metrics.cv_rmse(k * a, k * p) == pytest.approx(metrics.cv_rmse(a, p), rel=1e-9)
    assert metrics.nmbe(k * a, k * p) == pytest.approx(metrics.nmbe(a, p), rel=1e-9)


@settings(deadline=None, max_examples=50)
@given(
    st.lists(st.floats(min_value=-100.0, max_value=100.0), min_size=3, max_size=30),
    st.floats(min_value=-50.0, max_value=50.0),
)
@example(vals=[0.0, 0.0, 2.7e-75], shift=1.0)
@example(vals=[0.0, 0.0, 2.5259980218926296e-144], shift=1.0)
@example(vals=[0.0, 0.0, 1e-80], shift=0.1)  # constant, but its mean rounds off 0.1
def test_r2_translation_invariance(vals, shift):
    a = np.array(vals)
    p = a + np.linspace(-1.0, 1.0, a.size)
    if np.ptp(a + shift) == 0:
        # the shift rounded the spread away: R^2 of a constant is undefined
        with pytest.raises(UndefinedMetricError):
            metrics.r_squared(a + shift, p + shift)
        return
    # Shifting rounds each value to the float64 grid at the shifted
    # magnitude. The 1e-9 absolute tolerance needs the spread to clear that
    # grid step (and the underflow floor of its square) by a wide margin.
    step = max(np.spacing(np.max(np.abs(a + shift))), np.sqrt(np.finfo(float).tiny))
    if np.ptp(a) < 1e10 * step:
        return
    assert metrics.r_squared(a + shift, p + shift) == pytest.approx(
        metrics.r_squared(a, p), rel=1e-6, abs=1e-9
    )


def test_perfect_prediction():
    a = np.array([1.0, 2.0, 3.0])
    assert metrics.rmse(a, a) == 0.0
    assert metrics.r_squared(a, a) == 1.0
    assert metrics.nmbe(a, a) == 0.0


class TestGate:
    def make(self, cv, nm):
        return metrics.KpiSet(rmse=1.0, cv_rmse=cv, r_squared=0.9, nmbe=nm, n=30)

    def test_all_inside(self):
        g = metrics.ashrae_gate(self.make(0.21, 0.06), self.make(0.14, 0.04))
        assert g.passed

    def test_limits_are_strict(self):
        # sitting exactly on a limit fails that check
        assert not metrics.ashrae_gate(self.make(0.22, 0.0), self.make(0.1, 0.0)).daily_cv_ok
        assert not metrics.ashrae_gate(self.make(0.1, 0.07), self.make(0.1, 0.0)).daily_nmbe_ok
        assert not metrics.ashrae_gate(self.make(0.1, 0.0), self.make(0.15, 0.0)).monthly_cv_ok
        assert not metrics.ashrae_gate(self.make(0.1, 0.0), self.make(0.1, 0.05)).monthly_nmbe_ok

    def test_nmbe_uses_absolute_value(self):
        g = metrics.ashrae_gate(self.make(0.1, -0.069), self.make(0.1, -0.049))
        assert g.passed
        assert not metrics.ashrae_gate(self.make(0.1, -0.071), self.make(0.1, 0.0)).daily_nmbe_ok

    def test_single_failure_blocks(self):
        g = metrics.ashrae_gate(self.make(0.5, 0.0), self.make(0.1, 0.0))
        assert not g.passed
        assert g.monthly_cv_ok and g.monthly_nmbe_ok and g.daily_nmbe_ok


class TestMonthlyRollup:
    def dates(self, start, n):
        from datetime import date, timedelta

        return [start + timedelta(days=i) for i in range(n)]

    def test_complete_month_kept(self):
        from datetime import date

        dates = self.dates(date(2019, 4, 1), 30)
        a = np.ones(30)
        p = np.full(30, 2.0)
        roll = metrics.monthly_rollup(dates, a, p)
        assert roll.months == [(2019, 4)]
        assert roll.actual[0] == 30.0 and roll.predicted[0] == 60.0

    def test_partial_month_dropped(self):
        from datetime import date

        dates = self.dates(date(2019, 4, 2), 60)  # April misses the 1st, May is whole
        roll = metrics.monthly_rollup(dates, np.ones(60), np.ones(60))
        assert (2019, 4) in roll.excluded
        assert roll.months == [(2019, 5)]

    def test_no_complete_month_raises(self):
        from datetime import date

        dates = self.dates(date(2019, 4, 10), 10)
        with pytest.raises(DataError):
            metrics.monthly_rollup(dates, np.ones(10), np.ones(10))


class TestKpiReport:
    def test_short_window_omits_monthly_and_gate(self):
        from datetime import date, timedelta

        dates = [date(2019, 4, 10) + timedelta(days=i) for i in range(10)]
        rng = np.random.default_rng(0)
        a = rng.uniform(50, 100, 10)
        rep = metrics.kpi_report(dates, a, a * 1.01)
        assert rep.monthly is None and rep.gate is None
        assert rep.daily.n == 10

        # one complete month (April) is too few for a monthly R^2
        dates = [date(2019, 4, 1) + timedelta(days=i) for i in range(45)]
        a = rng.uniform(50, 100, 45)
        rep = metrics.kpi_report(dates, a, a * 1.01)
        assert rep.monthly is None and rep.gate is None
        assert rep.daily.n == 45

    def test_full_window_gates(self):
        from datetime import date, timedelta

        dates = [date(2019, 4, 1) + timedelta(days=i) for i in range(61)]
        rng = np.random.default_rng(1)
        a = rng.uniform(100, 200, 61)
        p = a * (1 + rng.normal(0, 0.01, 61))
        rep = metrics.kpi_report(dates, a, p)
        assert rep.monthly is not None and rep.gate is not None
        assert rep.gate.passed

    def test_passed_is_a_gate_that_passed(self):
        from datetime import date, timedelta

        dates = [date(2019, 4, 1) + timedelta(days=i) for i in range(61)]
        a = np.random.default_rng(1).uniform(100, 200, 61)
        assert metrics.kpi_report(dates, a, a * 1.01).passed
        failed = metrics.kpi_report(dates, a, a * 1.1)  # a 10% bias fails both NMBE checks
        assert failed.gate is not None and not failed.passed
        short = metrics.kpi_report(dates[:45], a[:45], a[:45] * 1.01)
        assert short.gate is None and not short.passed
