"""The deterministic JSON writer: every expected string is a byte contract."""

import numpy as np
import pytest

from steklov import make_example, serialize_graph
from steklov.jsonio import format_json

INF = float("inf")


@pytest.mark.parametrize("value, text", [
    (0.0, "0.0"),
    (-0.0, "-0.0"),
    (1.0, "1.0"),
    (0.1, "0.10000000000000001"),
    (1e15, "1000000000000000.0"),
    (1e16, "10000000000000000"),
    (1e17, "1e+17"),
    (5e-324, "4.9406564584124654e-324"),
    (INF, '"inf"'),
    (-INF, '"-inf"'),
    (float("nan"), '"nan"'),
    (np.float32(0.1), "0.10000000149011612"),
    (np.int64(4), "4"),
    (True, "true"),
    (False, "false"),
    (None, "null"),
])
def test_scalars(value, text):
    assert format_json(value) == text


def test_string_escapes():
    assert format_json('a"b\\c\n\x01é') == '"a\\"b\\\\c\\u000a\\u0001é"'
    assert format_json("".join(map(chr, range(0x20)))) == '"' + "".join(
        f"\\u{c:04x}" for c in range(0x20)) + '"'


def test_string_lists():
    assert format_json(["a", 'q"', "x\ny", "é"]) == '["a", "q\\"", "x\\u000ay", "é"]'
    assert format_json(("a", "b")) == '["a", "b"]'
    assert format_json(["a", 1, None]) == '["a", 1, null]'
    assert format_json(['", "']) == '["\\", \\""]'


def test_containers():
    assert format_json([[], {}, np.array([])]) == "[[], {}, []]"
    assert format_json(np.array([[0.5, 1.0], [-2.25, 1e-300]])) == "[[0.5, 1.0], [-2.25, 1e-300]]"
    assert format_json(np.array([0.1, -1 / 3, 1e16, 2.5e-7])) == (
        "[0.10000000000000001, -0.33333333333333331, 10000000000000000, 2.4999999999999999e-07]"
    )
    integral = np.array([0.5, 2.0, -0.0, 1e15, 3e16])
    assert format_json(integral) == "[0.5, 2.0, -0.0, 1000000000000000.0, 30000000000000000]"
    mixed = np.array([0.1, 2.0, -0.0, np.inf, -np.inf, np.nan, 1e16, 1 / 3])
    assert format_json(mixed) == (
        '[0.10000000000000001, 2.0, -0.0, "inf", "-inf", "nan", 10000000000000000, '
        "0.33333333333333331]"
    )
    doc = {2: "b", "10": [1, 2.0], 1: {"z": None, "a": True}}
    assert format_json(doc, sort_keys=True) == '{"1": {"a": true, "z": null}, "10": [1, 2.0], "2": "b"}'
    with pytest.raises(TypeError):
        format_json(object())


def test_float_arrays_match_scalar_formatting():
    rng = np.random.default_rng(7)
    a = np.concatenate([rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200),
                        [1e16, -1e16, 2.0 ** 60, 5e-324, -5e-324]])
    assert format_json(a) == "[" + ", ".join(format_json(float(x)) for x in a) + "]"


def test_serialize_graph_bytes():
    assert serialize_graph(make_example("unit_square_diag")) == (
        '{"vertices": [{"id": "1", "m": 1.0}, {"id": "2", "m": 1.0}, {"id": "3", "m": 1.0}, '
        '{"id": "4", "m": 1.0}], "edges": [{"u": "1", "v": "2", "w": 1.0}, '
        '{"u": "1", "v": "4", "w": 1.0}, {"u": "2", "v": "3", "w": 1.0}, '
        '{"u": "2", "v": "4", "w": 1.0}, {"u": "3", "v": "4", "w": 1.0}], "boundary": ["1", "3"]}\n'
    )
    assert serialize_graph(make_example("weighted_path3", n=3.0, K=0.7, m=1.3)) == (
        '{"vertices": [{"id": "1", "m": 1.3}, {"id": "2", "m": 1.3}, '
        '{"id": "x", "m": 1.5600000000000001}], "edges": [{"u": "1", "v": "x", "w": 1.365}, '
        '{"u": "2", "v": "x", "w": 1.365}], "boundary": ["1", "2"]}\n'
    )
