"""Value fuzzing of the run config's --set overrides.

Whatever value a `--set SECTION.KEY=VALUE` gives any key, load_run_config
either returns a RunConfig or raises a VolformerError (exit 1 at the
command line), never another exception. Values are JSON of any shape
(wrong types, NaN and +-Infinity, huge integers, empty strings, strings
holding NUL, lists and objects) and raw text that is not JSON: integers
past Python's 4300-digit conversion limit, deep nesting and lone
brackets. The examples are derandomized, so every run tries the same
values.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volformer.cli import _SECTIONS, load_run_config
from volformer.errors import VolformerError

KEYS = [f"{section}.{f.name}" for section, cls in _SECTIONS.items()
        for f in dataclasses.fields(cls)]
FUZZ = settings(max_examples=40, derandomize=True, deadline=None)

scalars = (st.none() | st.booleans() | st.floats()
           | st.integers() | st.integers(-2**64, 2**64).map(lambda n: n * 10**30)
           | st.text(max_size=8) | st.sampled_from(["", "\0", "a\0b"]))
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4),
                                                                inner, max_size=3),
    max_leaves=6)
raw_values = st.one_of(
    json_values.map(json.dumps),  # NaN and Infinity come out as bare words
    st.sampled_from(["NaN", "Infinity", "-Infinity", "", "[", "{", "nul\0l"]),
    st.text(max_size=16),
    st.integers(4000, 6000).map(lambda n: "9" * n),
    st.integers(1, 100_000).map(lambda n: "[" * n + "]" * n),
)


@pytest.mark.parametrize("key", KEYS)
@FUZZ
@given(raw=raw_values)
def test_set_value(key, raw):
    try:
        load_run_config(None, [f"{key}={raw}"], None)
    except VolformerError:
        pass
