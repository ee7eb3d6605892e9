import dataclasses
import json
import multiprocessing
import os
import time
from datetime import date

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normbase import cli, gbmodels
from normbase import normalize as nb
from normbase.features import FeatureSpec, apply_scaler, build_features, fit_scaler, make_sequences
from normbase.savefile import from_json, json_schema, to_json
from normbase.errors import (
    ConfigError,
    DataError,
    UndefinedMetricError,
)


class TestPeriodSpec:
    def test_valid(self):
        nb.PeriodSpec(
            train=(date(2020, 1, 1), date(2020, 6, 30)),
            test=(date(2020, 7, 1), date(2020, 8, 31)),
            study=(date(2020, 9, 1), date(2020, 9, 30)),
        )

    def test_reversed_range(self):
        with pytest.raises(ConfigError):
            nb.PeriodSpec(
                train=(date(2020, 6, 30), date(2020, 1, 1)),
                test=(date(2020, 7, 1), date(2020, 8, 31)),
                study=(date(2020, 9, 1), date(2020, 9, 30)),
            )

    def test_overlapping_periods(self):
        with pytest.raises(ConfigError):
            nb.PeriodSpec(
                train=(date(2020, 1, 1), date(2020, 7, 15)),
                test=(date(2020, 7, 1), date(2020, 8, 31)),
                study=(date(2020, 9, 1), date(2020, 9, 30)),
            )

    def test_study_before_test(self):
        with pytest.raises(ConfigError):
            nb.PeriodSpec(
                train=(date(2020, 1, 1), date(2020, 6, 30)),
                test=(date(2020, 9, 1), date(2020, 9, 30)),
                study=(date(2020, 7, 1), date(2020, 8, 31)),
            )


class TestDailyLoadRatio:
    def test_hand_values(self):
        ratio, undef = nb.daily_load_ratio([100.0, 50.0], [100.0, 100.0])
        assert ratio.tolist() == [1.0, 0.5]
        assert not undef.any()

    def test_nonpositive_prediction_is_undefined(self):
        ratio, undef = nb.daily_load_ratio([10.0, 10.0, 10.0], [100.0, 0.0, -5.0])
        assert undef.tolist() == [False, True, True]
        assert np.isnan(ratio[1]) and np.isnan(ratio[2])
        assert ratio[0] == 0.1

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            nb.daily_load_ratio([1.0], [1.0, 2.0])


class TestEnsembleMean:
    def test_mean_of_members(self):
        out = nb.ensemble_mean([[1.0, 2.0], [3.0, 4.0]])
        assert out.tolist() == [2.0, 3.0]

    def test_single_member_is_identity(self):
        assert nb.ensemble_mean([[5.0, 6.0]]).tolist() == [5.0, 6.0]

    def test_empty(self):
        with pytest.raises(DataError):
            nb.ensemble_mean([])


@settings(deadline=None, max_examples=50)
@given(
    st.integers(1, 4).flatmap(
        lambda k: st.integers(1, 8).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                    min_size=n, max_size=n,
                ),
                min_size=k, max_size=k,
            )
        )
    )
)
def test_ensemble_mean_bounded_by_members(members):
    out = nb.ensemble_mean(members)
    stack = np.array(members)
    assert np.all(out >= stack.min(axis=0) - 1e-9)
    assert np.all(out <= stack.max(axis=0) + 1e-9)


class TestAnnualShare:
    def test_hand_value(self):
        assert nb.annual_share(50.0, 1000.0) == 0.05

    def test_nonpositive_reference(self):
        with pytest.raises(UndefinedMetricError):
            nb.annual_share(50.0, 0.0)


class TestRunSetup:
    def test_default_models_cover_all_models(self, small_periods):
        cfgs = nb.RunSetup(periods=small_periods, seed=100).models
        assert list(cfgs) == list(nb.MODEL_ORDER)
        assert [type(c) for c in cfgs.values()] == [
            nb.MlpSetup, nb.LstmSetup, gbmodels.BoostConfig, gbmodels.BoostConfig]
        assert [c.seed for c in cfgs.values()] == [111, 122, 133, 144]

    def test_default_reference_range_is_the_test_range(self, small_periods):
        assert nb.RunSetup(periods=small_periods).reference_range == small_periods.test

    @pytest.mark.parametrize("models", [None, {"lstm": nb.LstmSetup(epochs=5, hidden_size=8)}],
                             ids=["defaults", "lstm-only"])
    def test_round_trips_through_json(self, small_periods, models):
        setup = nb.RunSetup(periods=small_periods, models=models, seed=5)
        doc = json.loads(json.dumps(to_json(setup)))
        back = from_json(nb.RunSetup, doc)
        assert back == setup
        assert [type(c) for c in back.models.values()] == [type(c) for c in setup.models.values()]
        jsonschema.validate(doc, json_schema(nb.RunSetup))


class TestPipelineValidation:
    @pytest.fixture()
    def no_fit(self, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("a model trained before the settings were checked")

        monkeypatch.setattr(gbmodels, "boost_fit", no_fit)

    def test_unknown_selection(self, small_table, small_periods):
        with pytest.raises(ConfigError):
            nb.run_pipeline(small_table, nb.RunSetup(
                periods=small_periods, ensemble=nb.EnsembleSetup(selection="best")))

    def test_bad_top_k(self, small_table, small_periods):
        with pytest.raises(ConfigError):
            nb.run_pipeline(small_table, nb.RunSetup(
                periods=small_periods, ensemble=nb.EnsembleSetup(selection=nb.SELECTION_TOP_K, top_k=0)))

    def test_negative_p_fails_before_any_fit(self, small_table, small_periods, tree_models, no_fit):
        with pytest.raises(ConfigError, match="^p must be >= 0, not -1$"):
            nb.run_pipeline(small_table, nb.RunSetup(
                periods=small_periods, models=tree_models, kpi=nb.KpiSetup(p=-1)))

    def test_reversed_reference_range_fails_at_construction(self, small_periods):
        with pytest.raises(ConfigError) as exc:
            nb.RunSetup(periods=small_periods, reference_range=(date(2018, 8, 31), date(2018, 7, 1)))
        assert str(exc.value) == "config key 'reference_range' ends before it starts"

    def test_reference_range_without_a_usable_day_fails_before_any_fit(
        self, small_table, small_periods, tree_models, no_fit
    ):
        setup = nb.RunSetup(periods=small_periods, models=tree_models,
                            reference_range=(date(2015, 1, 1), date(2015, 12, 31)))
        with pytest.raises(DataError) as exc:
            nb.run_pipeline(small_table, setup)
        assert str(exc.value) == "reference_range has no usable rows"

    def test_unknown_model_name(self, small_periods, tree_models):
        bad = dict(tree_models)
        bad["boosted"] = bad.pop("gbt_exact")
        with pytest.raises(ConfigError, match=r"^unknown config key 'models.boosted'$"):
            nb.RunSetup(periods=small_periods, models=bad)

    def test_no_models(self, small_periods):
        with pytest.raises(ConfigError, match="^all models are disabled$"):
            nb.RunSetup(periods=small_periods, models={})

    def test_short_train_window(self, small_table, tree_models):
        periods = nb.PeriodSpec(
            train=(date(2018, 1, 1), date(2018, 1, 31)),
            test=(date(2018, 7, 1), date(2018, 8, 31)),
            study=(date(2018, 9, 1), date(2018, 10, 15)),
        )
        with pytest.raises(DataError):
            nb.run_pipeline(small_table, nb.RunSetup(periods=periods, models=tree_models))

    def test_too_few_lstm_windows_in_the_train_range(self, small_table, small_periods, cpus, pools):
        # every fourth day excluded before June 2018: enough usable train
        # rows, but the only runs of seven days start in June
        dates = np.array(small_table.dates)
        broken = (dates < date(2018, 6, 1)) & (np.arange(dates.size) % 4 == 3)
        table = dataclasses.replace(small_table, excluded=small_table.excluded | broken)
        matrix = build_features(table, FeatureSpec())
        train = matrix.date_mask(*small_periods.train)
        windows = int(train[make_sequences(matrix, FeatureSpec().lookback_days).rows].sum())
        assert train.sum() >= nb.MIN_TRAIN_ROWS and 0 < windows < 30
        models = {
            "lstm": nb.LstmSetup(hidden_size=4, epochs=3, batch_size=64, seed=22),
            "gbt_exact": gbmodels.BoostConfig(rounds=5, learning_rate=0.2, seed=33),
        }
        for n in (1, 2):
            cpus(n)
            with pytest.raises(DataError, match=f"^lstm_train needs at least 30 sequences, got {windows}$"):
                nb.run_pipeline(table, nb.RunSetup(periods=small_periods, models=models))
            assert not multiprocessing.active_children()
        assert pools == [2]


class TestPipelineTreeRuns:
    def test_deterministic_repeat(self, small_table, small_periods, tree_models):
        a = nb.run_pipeline(small_table, nb.RunSetup(periods=small_periods, models=tree_models, seed=5))
        b = nb.run_pipeline(small_table, nb.RunSetup(periods=small_periods, models=tree_models, seed=5))
        assert to_json(a.report) == to_json(b.report)

    def test_study_actuals_never_leak_into_predictions(
        self, small_table, small_periods, tree_models
    ):
        base = nb.run_pipeline(small_table, nb.RunSetup(periods=small_periods, models=tree_models, seed=5))
        study_mask = np.array(
            [small_periods.study[0] <= d <= small_periods.study[1] for d in small_table.dates]
        )
        energy = small_table.energy.copy()
        energy[study_mask] *= 10.0
        spiked_table = dataclasses.replace(small_table, energy=energy)
        spiked = nb.run_pipeline(spiked_table, nb.RunSetup(periods=small_periods, models=tree_models, seed=5))
        for name in tree_models:
            np.testing.assert_array_equal(base.preds[name], spiked.preds[name])

    def test_top_k_selection_ranks_by_daily_cv(self, small_table, small_periods, tree_models):
        report = nb.run_pipeline(small_table, nb.RunSetup(
            periods=small_periods, models=tree_models,
            ensemble=nb.EnsembleSetup(selection=nb.SELECTION_TOP_K, top_k=1), seed=5,
        ))
        assert len(report.report.models_used) == 1
        best = min(tree_models, key=lambda n: report.report.models[n].kpis.daily.cv_rmse)
        assert report.report.models_used == [best]

    def test_top_k_larger_than_pool_uses_everything(
        self, small_table, small_periods, tree_models
    ):
        report = nb.run_pipeline(small_table, nb.RunSetup(
            periods=small_periods, models=tree_models,
            ensemble=nb.EnsembleSetup(selection=nb.SELECTION_TOP_K, top_k=10), seed=5,
        ))
        assert sorted(report.report.models_used) == sorted(tree_models)

    def test_no_valid_baseline_carries_report(self, small_table, small_periods, tree_models):
        # pure-noise target: daily CV(RMSE) is far over the gate limit
        rng = np.random.default_rng(0)
        energy = rng.uniform(500.0, 1500.0, size=len(small_table.dates))
        noisy = dataclasses.replace(small_table, energy=energy)
        report = nb.run_pipeline(noisy, nb.RunSetup(periods=small_periods, models=tree_models, seed=5))
        assert report.report.flags.no_valid_baseline
        assert report.report.models_used == []
        assert to_json(report.report)["flags"]["no_valid_baseline"] is True
        # per-model diagnostics are still present for the failure writeup
        for name in tree_models:
            assert report.report.models[name].kpis.daily.cv_rmse > 0.22


class TestFitTrace:
    """Every trainer returns a FitTrace in target units: val[best] is the
    returned model's RMSE in kWh over the validation tail of its training rows."""

    SETUPS = {
        "mlp": nb.MlpSetup(hidden_sizes=(8,), epochs=30, seed=11),
        "lstm": nb.LstmSetup(hidden_size=8, epochs=8, batch_size=64, seed=22),
        "gbt_exact": gbmodels.BoostConfig(rounds=40, learning_rate=0.2, seed=33),
        "gbt_hist": gbmodels.BoostConfig(rounds=40, learning_rate=0.2, seed=44),
    }

    @pytest.mark.parametrize("name", nb.MODEL_ORDER)
    def test_val_at_best_is_the_models_kwh_rmse(self, name, small_table, small_periods):
        spec, setup, kind = FeatureSpec(), self.SETUPS[name], nb.MODEL_KINDS[name]
        matrix = build_features(small_table, spec)
        train = matrix.date_mask(*small_periods.train)
        scaled = apply_scaler(matrix, fit_scaler(matrix, train))
        fitted, trace = kind.fit(setup, scaled, train, spec.lookback_days)
        pred = kind.predict(fitted, scaled, spec.lookback_days)
        # the rows the model trained on, and their validation tail
        rows = np.flatnonzero(train & ~np.isnan(pred))
        tail = rows[rows.size - round(setup.validation_fraction * rows.size):]
        rmse = float(np.sqrt(np.mean((pred[tail] - scaled.y[tail]) ** 2)))
        assert len(trace.train) == len(trace.val)
        assert trace.val[trace.best] == pytest.approx(rmse, rel=1e-12, abs=0)
        assert trace.val[trace.best] == min(trace.val)


class TestModelPool:
    """The enabled models fit in worker processes, one per model up to the
    usable CPUs; one worker means the serial loop in this process."""

    def test_report_does_not_depend_on_worker_count(self, small_table, small_periods, cpus, pools):
        models = {
            "mlp": nb.MlpSetup(hidden_sizes=(8,), epochs=5, seed=11),
            "lstm": nb.LstmSetup(hidden_size=4, epochs=3, batch_size=64, seed=22),
            "gbt_exact": gbmodels.BoostConfig(rounds=20, learning_rate=0.2, seed=33),
            "gbt_hist": gbmodels.BoostConfig(rounds=20, learning_rate=0.2, seed=44),
        }
        docs = []
        for n in (1, 2, 8):
            cpus(n)
            report = nb.run_pipeline(small_table, nb.RunSetup(periods=small_periods, models=models, seed=7))
            assert not multiprocessing.active_children()
            docs.append(json.dumps(to_json(report.report)))
        assert pools == [2, 4]
        assert docs[0] == docs[1] == docs[2]

    def test_serial_where_the_platform_cannot_report_cpus(
        self, small_table, small_periods, tree_models, pools, monkeypatch
    ):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        report = nb.run_pipeline(small_table, nb.RunSetup(periods=small_periods, models=tree_models, seed=5))
        assert pools == []
        assert list(report.preds) == ["gbt_exact", "gbt_hist"]

    def test_first_failing_model_in_order_raises(
        self, small_table, small_periods, tree_models, cpus, pools, monkeypatch
    ):
        def failing_fit(data, cfg, kind):
            if kind == "exact":
                time.sleep(0.5)  # so the later model fails first
            raise DataError(f"{kind} fit failed")

        monkeypatch.setattr(gbmodels, "boost_fit", failing_fit)
        for n in (1, 2):
            cpus(n)
            with pytest.raises(DataError, match="^exact fit failed$"):
                nb.run_pipeline(small_table, nb.RunSetup(periods=small_periods, models=tree_models))
            assert not multiprocessing.active_children()
        assert pools == [2]


class TestFullReport:
    """Consistency of a healthy four-model run (shared session fixture)."""

    def test_all_models_present_and_gated(self, full_report):
        assert set(full_report.preds) == set(nb.MODEL_ORDER)
        assert full_report.report.models_used  # something passed
        assert not full_report.report.flags.no_valid_baseline
        for name in full_report.report.models_used:
            assert full_report.report.models[name].kpis.gate.passed

    def test_ensemble_is_mean_of_used_members(self, full_report):
        study = full_report.study_mask
        stacks = [full_report.preds[n][study] for n in full_report.report.models_used]
        # all members cover the full study range here, so plain mean applies
        want = np.mean(np.stack(stacks), axis=0)
        np.testing.assert_allclose(
            full_report.report.study.ensemble_predicted_kwh, want, rtol=1e-12
        )

    def test_dlr_matches_definition(self, full_report):
        ratio = full_report.report.study.dlr["ensemble"]
        defined = ~np.isnan(ratio)
        np.testing.assert_allclose(
            ratio[defined],
            full_report.report.study.actual_kwh[defined]
            / full_report.report.study.ensemble_predicted_kwh[defined],
            rtol=1e-15,
        )

    def test_cumulative_curves_and_totals_are_consistent(self, full_report):
        r = full_report.report
        assert len(r.cumulative.dates) == len(r.cumulative.actual_kwh) == len(r.cumulative.predicted_kwh)
        # cumulative curves are running sums of positive consumption
        assert np.all(np.diff(r.cumulative.actual_kwh) > 0)
        # the headline total is exactly the gap between the curve endpoints
        assert r.totals.reduction_kwh == float(r.cumulative.predicted_kwh[-1] - r.cumulative.actual_kwh[-1])
        assert r.totals.reduction_fraction == r.totals.reduction_kwh / float(r.cumulative.predicted_kwh[-1])
        assert r.totals.annual_share == r.totals.reduction_kwh / r.totals.reference_total_kwh

    def test_reference_total_defaults_to_test_range_actual(
        self, full_report, small_table, small_periods
    ):
        mask = np.array(
            [small_periods.test[0] <= d <= small_periods.test[1] for d in small_table.dates]
        )
        assert full_report.report.totals.reference_total_kwh == pytest.approx(
            float(np.sum(small_table.energy[mask])), rel=1e-12
        )

    def test_report_serializes_and_validates(self, full_report, read_report):
        doc = read_report(full_report.report)
        assert doc["schema_version"] == 1
        assert doc["models_used"] == list(full_report.report.models_used)

    def test_info_counts_the_fit(self, full_report, read_report):
        # report.json's v1 info, 0-based best step; the trees keep their
        # best round's ensemble, as every fit here has a validation split
        models = read_report(full_report.report)["models"]
        for name in ("mlp", "lstm"):
            info = models[name]["info"]
            assert 0 <= info["best_epoch"] < info["epochs"]
        for name in ("gbt_exact", "gbt_hist"):
            info = models[name]["info"]
            assert info["n_trees"] == len(full_report.fitted[name].trees) == info["best_round"] + 1
            assert info["best_round"] < info["rounds"]

    def test_estimate_close_to_planted_reduction(self, full_report, small_dataset):
        # the small fixture plants a 35% occupancy cut; the estimate need only
        # be in the neighbourhood here (the acceptance suite pins tolerance)
        planted = small_dataset.reduction_fraction
        assert abs(full_report.report.totals.reduction_fraction - planted) < 0.05


class TestDateAxis:
    """Days excluded inside the test and study ranges leave the LSTM without
    a lookback window for the following days; every other model still
    predicts them."""

    GAPS = (date(2018, 7, 15), date(2018, 9, 10))  # one test day, one study day
    # four test months, so three stay complete for the monthly KPIs
    PERIODS = nb.PeriodSpec(
        train=(date(2017, 1, 1), date(2018, 4, 30)),
        test=(date(2018, 5, 1), date(2018, 8, 31)),
        study=(date(2018, 9, 1), date(2018, 10, 15)),
    )

    @pytest.fixture(scope="class")
    def gapped(self, small_table):
        table = dataclasses.replace(
            small_table,
            excluded=small_table.excluded | np.isin(np.array(small_table.dates), self.GAPS),
        )
        models = {
            "mlp": nb.MlpSetup(hidden_sizes=(8,), epochs=40, seed=11),
            "lstm": nb.LstmSetup(hidden_size=8, epochs=20, batch_size=64, seed=22),
            "gbt_exact": gbmodels.BoostConfig(rounds=60, learning_rate=0.2, seed=33),
            "gbt_hist": gbmodels.BoostConfig(rounds=60, learning_rate=0.2, seed=44),
        }
        report = nb.run_pipeline(table, nb.RunSetup(
            periods=self.PERIODS, models=models,
            ensemble=nb.EnsembleSetup(selection=nb.SELECTION_TOP_K, top_k=4), seed=5,
        ))
        spec = FeatureSpec()
        matrix = build_features(table, spec)
        windowed = {matrix.dates[t] for t in make_sequences(matrix, spec.lookback_days).rows}
        return report, windowed, table

    def test_lstm_kpis_cover_only_windowed_test_days(self, gapped):
        report, windowed, table = gapped
        lo, hi = self.PERIODS.test
        test_days = [d for d, ex in zip(table.dates, table.excluded) if lo <= d <= hi and not ex]
        assert self.GAPS[0] not in test_days
        n_windowed = sum(1 for d in test_days if d in windowed)
        assert 0 < n_windowed < len(test_days)
        assert report.report.models["lstm"].kpis.daily.n == n_windowed
        for name in ("mlp", "gbt_exact", "gbt_hist"):
            assert report.report.models[name].kpis.daily.n == len(test_days)

    def test_study_days_without_window(self, gapped, read_report):
        report, windowed, _ = gapped
        doc = read_report(report.report)
        study = report.report.study.dates
        missing = np.array([d not in windowed for d in study])
        assert self.GAPS[1] not in study
        assert 0 < missing.sum() < len(study)
        assert sorted(report.report.models_used) == sorted(nb.MODEL_ORDER)

        # the ensemble falls back to the mean of the other members
        others = np.array(
            [doc["models"][n]["study_predicted"] for n in ("mlp", "gbt_exact", "gbt_hist")]
        )
        np.testing.assert_allclose(
            report.report.study.ensemble_predicted_kwh[missing], others.mean(axis=0)[missing], rtol=1e-12
        )
        assert np.all(np.isnan(report.report.study.dlr["lstm"][missing]))
        assert not np.any(np.isnan(report.report.study.dlr["lstm"][~missing]))

        # report.json lists only the covered days for the LSTM
        lstm_study = doc["models"]["lstm"]["study_predicted"]
        assert len(lstm_study) == int((~missing).sum())
        assert None not in lstm_study

        # daily.csv leaves the uncovered LSTM cells blank
        lines = cli._daily_csv(report, None).splitlines()
        col = lines[0].split(",").index("predicted_lstm_kwh")
        cells = [line.split(",")[col] for line in lines[1:]]
        assert [c == "" for c in cells] == missing.tolist()
