import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaydde import History, Zero, evolve
from relaydde.cli import PRESETS, _dump_json, _Records


def _reference(obj) -> str:
    """The text _dump_json must reproduce byte for byte: the json.dumps walk
    it replaced."""
    def enc(o):
        if isinstance(o, (float, np.floating)):
            x = float(o)
            if math.isfinite(x):
                return x
            return "inf" if x > 0 else ("-inf" if x < 0 else "nan")
        if isinstance(o, dict):
            return {k: enc(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [enc(v) for v in o]
        if isinstance(o, (np.integer,)):
            return int(o)
        return o
    return json.dumps(enc(obj), indent=2, sort_keys=True)


_JSON_BOOL = ("false", "true")


def _reference_zeros(zeros) -> str:
    """The zeros payload as the hand-written f-string writer it replaced gave it."""
    if not zeros:
        return '{\n  "zeros": []\n}'
    body = ",\n".join([f'    {{\n      "t": {z.t!r},\n      "up": {_JSON_BOOL[z.up]}\n    }}'
                       for z in zeros])
    return '{\n  "zeros": [\n' + body + '\n  ]\n}'


_TEXT = st.text(st.characters(codec="utf-8"))   # non-ASCII, controls, quotes, backslashes
_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | _TEXT
            | st.floats().map(np.float64) | st.floats(width=32).map(np.float32)
            | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)
            | st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324]))
_PAYLOADS = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(_PAYLOADS)
def test_bytes_equal_json_dumps(obj):
    assert _dump_json(obj) == _reference(obj)


def test_bytes_equal_json_dumps_on_cli_edge_values():
    for obj in ({}, [], (), {"a": {}, "b": [], "c": [[], {}]}, [[[]]], "",
                "\x00\x1f\"\\/é \U0001f600", {"\n": 1, "é": 2, "A": 3, "a": 4},
                [True, False, None, 0, -1, 2 ** 70], [np.float64(0.1), np.float32(0.1)],
                {"x": (math.inf, -math.inf, math.nan, np.float64("nan"))}):
        assert _dump_json(obj) == _reference(obj), obj


@pytest.mark.parametrize("value", [np.bool_(True), {1, 2}, b"x", 1j, object()])
def test_unserializable_values_raise_type_error(value):
    with pytest.raises(TypeError):
        _reference(value)
    with pytest.raises(TypeError):
        _dump_json({"a": [value]})


_COLUMNS = (st.lists(st.floats(), min_size=1, max_size=12),
            st.lists(st.booleans(), min_size=1, max_size=12),
            st.lists(_TEXT, min_size=1, max_size=12))


@st.composite
def _records(draw):
    keys = draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True))
    n = draw(st.integers(0, 12))
    columns = []
    for _ in keys:
        column = draw(st.one_of(_COLUMNS).map(lambda c: (c * n)[:n]))
        if column and isinstance(column[0], float) and draw(st.booleans()):
            with np.errstate(over="ignore"):    # float32 rounds large doubles to inf
                column = np.array(column, dtype=draw(st.sampled_from(["f8", "f4"])))
        elif column and isinstance(column[0], bool) and draw(st.booleans()):
            column = np.array(column)
        columns.append(column)
    return keys, columns


@settings(max_examples=300, deadline=None)
@given(_records())
def test_records_bytes_equal_json_dumps_of_row_dicts(records):
    keys, columns = records
    values = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    rows = [dict(zip(keys, row)) for row in zip(*values)]
    got = _Records(tuple(keys), tuple(columns))
    assert _dump_json(got) == _reference(rows)
    assert _dump_json({"rows": got, "x": [got]}) == _reference({"rows": rows, "x": [rows]})


def test_records_equal_the_old_zeros_writer():
    many = evolve(PRESETS["p1"], History.constant(1.0, 1.0), 5000.0).zeros
    assert len(many) > 3000
    odd = (Zero(5e-324, True), Zero(1e300, False), Zero(0.1 + 0.2, True))
    for zeros in ((), many[:1], many, odd):
        records = _Records(("t", "up"), ([z.t for z in zeros], [z.up for z in zeros]))
        assert _dump_json({"zeros": records}) == _reference_zeros(zeros)
