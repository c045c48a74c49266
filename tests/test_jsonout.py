import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncsym.jsonout import dumps


def _reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


# Quotes, backslashes, control characters, lone surrogates and characters
# outside ASCII and the BMP, besides whatever Unicode Hypothesis draws.
_SPECIAL = st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\ud800", "\udfff",
                            "é", "€", " ", "\U0001f600"])
_TEXT = st.text(st.one_of(st.characters(exclude_categories=()), _SPECIAL), max_size=12)
# Integers of about 1,000 digits (drawn cheaply: one small int each); the
# strategy list below negates them too.
_HUGE = st.integers(min_value=1, max_value=10 ** 6).map(lambda k: k * (10 ** 999 + 7))
_SCALARS = st.one_of(
    _TEXT,
    st.integers(),
    _HUGE,
    _HUGE.map(lambda k: -k),
    st.booleans(),
    st.none(),
    st.floats(),  # NaN and both infinities included
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e300, 5e-324]),
)
_TREES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_TEXT, children, max_size=5),
    ),
    max_leaves=25,
)


@settings(max_examples=100, deadline=None)
@given(_TREES)
def test_writer_matches_json_dumps(tree):
    assert dumps(tree) == _reference(tree)


def test_writer_empty_and_nested_containers():
    for obj in ([], {}, [[]], [{}], {"a": []}, {"a": {"b": {}}}, [[[1], [2, [3]]]], ()):
        assert dumps(obj) == _reference(obj)


def test_writer_refuses_keys_that_are_not_strings():
    for obj in ({1: 2}, {"a": {None: 1}}, [{True: 0}]):
        with pytest.raises(TypeError):
            dumps(obj)


def test_writer_refuses_what_json_refuses():
    for obj in (object(), [1, {"a": {1, 2}}], b"bytes", {"a": 1j}):
        with pytest.raises(TypeError) as ours:
            dumps(obj)
        with pytest.raises(TypeError) as theirs:
            _reference(obj)
        assert str(ours.value) == str(theirs.value)
