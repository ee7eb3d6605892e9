"""Weather-normalized counterfactual baselines for daily building energy.

Train baseline models on pre-disruption consumption and weather, verify them
on a held-out range against ASHRAE-style KPI limits, then predict what the
building would have used during a disruption and quantify the deviation.

Typical library use:

    from normbase import tsdata, features, normalize

    table = tsdata.align(energy_daily, weather_daily)
    setup = normalize.RunSetup(periods=normalize.PeriodSpec(train, test, study))
    run = normalize.run_pipeline(table, setup)
    print(run.report.totals.reduction_fraction)
"""

import os
import sys

# OpenBLAS starts its thread pool when NumPy loads, and the idle threads
# busy-wait. The parallelism here is in worker processes, which inherit this,
# and no product is large enough to gain from BLAS threads; an explicit
# setting wins. Set before anything loads NumPy, or it has no effect.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    NormbaseError,
    TrainingDivergedError,
    UndefinedMetricError,
)
from .features import FeatureSpec, build_features, fit_scaler, make_sequences
from .metrics import (
    ashrae_gate,
    cv_rmse,
    kpi_report,
    kpi_set,
    monthly_rollup,
    nmbe,
    r_squared,
    rmse,
)
from .normalize import (
    MODEL_ORDER,
    NormalizationReport,
    PeriodSpec,
    RunSetup,
    annual_share,
    daily_load_ratio,
    default_model_configs,
    ensemble_mean,
    run_pipeline,
)
from .synthgen import SynthConfig, configure_for_target, generate, occupancy_drop_for_target
from .tsdata import (
    GapFillPolicy,
    RawSeries,
    SeriesSchema,
    align,
    fill_gaps,
    parse_series,
    parse_series_bytes,
    resample_daily,
    serialize_series,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataError",
    "DimensionError",
    "NormbaseError",
    "TrainingDivergedError",
    "UndefinedMetricError",
    "FeatureSpec",
    "build_features",
    "fit_scaler",
    "make_sequences",
    "ashrae_gate",
    "cv_rmse",
    "kpi_report",
    "kpi_set",
    "monthly_rollup",
    "nmbe",
    "r_squared",
    "rmse",
    "MODEL_ORDER",
    "NormalizationReport",
    "PeriodSpec",
    "RunSetup",
    "annual_share",
    "daily_load_ratio",
    "default_model_configs",
    "ensemble_mean",
    "run_pipeline",
    "SynthConfig",
    "configure_for_target",
    "generate",
    "occupancy_drop_for_target",
    "GapFillPolicy",
    "RawSeries",
    "SeriesSchema",
    "align",
    "fill_gaps",
    "parse_series",
    "parse_series_bytes",
    "resample_daily",
    "serialize_series",
    "__version__",
]
