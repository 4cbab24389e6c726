"""Property test (hypothesis) of the wire decoders.

A ``POST /v1/sweeps`` body carries a ``grid`` and an ``options`` object.
Whatever those objects hold under the schemas' own keys,
:func:`repro.api.grid_from_payload` and :func:`repro.api.options_from_payload`
either return values a sweep can run or raise :class:`repro.api.SchemaError`
/ :class:`repro.errors.ReproError` (the daemon's 400).  Nothing else may
happen: no other exception, no grid that enumerates no campaign, no
negative seed, and no start time, backoff or timeout that is not a finite
number.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import api
from repro.errors import ReproError

#: Registered names mixed into the drawn strings, so that accepted
#: payloads are drawn too, not only refused ones.
_NAMES = (
    "redis", "lammps", "DarwinGame", "BLISS", "Optimal", "m5.8xlarge",
    "m5.large", "steady", "bursty", "darwin", "knockout", "test", "bench",
)

_scalars = (
    st.integers()
    | st.floats()  # NaN, +inf and -inf included
    | st.sampled_from(_NAMES)
    | st.text(max_size=6)
)
_values = _scalars | st.lists(_scalars, max_size=3)  # [] included


def _payloads(schema):
    return st.dictionaries(
        st.sampled_from(sorted(schema["properties"])), _values,
        max_size=len(schema["properties"]),
    )


_VALID_GRID = {
    "apps": ["redis"], "strategies": ["BLISS"], "seeds": [0, 1],
    "scale": "test", "start_time_step": 60.0,
}


@given(grid=_payloads(api.GRID_SCHEMA), options=_payloads(api.OPTIONS_SCHEMA))
@example(grid=_VALID_GRID, options={"backoff": 0.5, "task_timeout": 0})
@example(grid=dict(_VALID_GRID, strategies=[]), options={"backoff": math.inf})
@settings(max_examples=300, deadline=None)
def test_decoders_return_runnable_values_or_refuse(grid, options):
    try:
        decoded = api.grid_from_payload(grid)
    except (api.SchemaError, ReproError):
        pass
    else:
        assert decoded.size >= 1
        assert all(seed >= 0 for seed in decoded.seeds)
        step = decoded.start_time_step
        assert math.isfinite(step) and step >= 0
        assert all(
            math.isfinite(spec.start_time) and spec.start_time >= 0
            for spec in decoded.specs()
        )
    try:
        decoded_options = api.options_from_payload(options)
    except (api.SchemaError, ReproError):
        pass
    else:
        assert math.isfinite(decoded_options.backoff)
        assert decoded_options.backoff >= 0
        timeout = decoded_options.task_timeout
        assert timeout is None or math.isfinite(timeout)
