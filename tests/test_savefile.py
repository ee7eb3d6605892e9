import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normbase.features import Scaler, TargetScaler
from normbase.savefile import from_json, to_json

finite = st.floats(allow_nan=False, allow_infinity=False)
MAX = 1.7976931348623157e308


def round_trip(x):
    return from_json(type(x), json.loads(json.dumps(to_json(x), allow_nan=False)))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# A fitted Scaler has one entry per feature column and a feature spec selects
# at least one column, so the arrays are never empty.
@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.tuples(finite, finite, st.booleans()), min_size=1, max_size=20),
    finite,
    finite,
)
@example([(-0.0, 5e-324, True), (MAX, -MAX, False)], -0.0, 5e-324)
@example([(5e-324, -0.0, False)], MAX, -MAX)
def test_scalers_reload_bit_identical(columns, mean, std):
    mean_col, std_col, exempt = (np.array(c) for c in zip(*columns))
    sc = Scaler(mean=mean_col, std=std_col, exempt=exempt)
    back = round_trip(sc)
    assert same_bits(back.mean, sc.mean)
    assert same_bits(back.std, sc.std)
    assert same_bits(back.exempt, sc.exempt)
    assert back.exempt.dtype == bool

    ts = TargetScaler(mean=mean, std=std)
    back = round_trip(ts)
    assert type(back.mean) is float and type(back.std) is float
    assert same_bits(back.mean, ts.mean)
    assert same_bits(back.std, ts.std)
