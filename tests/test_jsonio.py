"""The deterministic JSON writer: every expected string is a byte contract."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import steklov.cli
from steklov import jsonio, make_example, serialize_graph
from steklov.jsonio import format_json

from oracles import random_boundary_graph, reference_format_json

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
    (np.True_, "true"),
    (np.False_, "false"),
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


def test_a_signalling_nan_is_written_without_a_numpy_warning():
    snan = np.array([0x7FF0000000000001], np.uint64).view(np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert format_json([snan, np.array([1.5, 2.5])]) == '[["nan"], [1.5, 2.5]]'
        assert format_json(np.resize(snan, jsonio._BULK_MIN)) == "[" + ", ".join(['"nan"'] * jsonio._BULK_MIN) + "]"


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


def test_numpy_bools_are_json_booleans():
    assert format_json(np.array([True, False])) == "[true, false]"
    assert format_json({"holds": np.bool_(True), "all": np.array([1.0, 2.0]) > 1.5}) == (
        '{"holds": true, "all": [false, true]}')


def _assert_like_reference(doc, sort_keys=False):
    text, want = format_json(doc, sort_keys=sort_keys), reference_format_json(doc, sort_keys=sort_keys)
    if text != want:  # name the first differing float, not a megabyte of text
        got, ref = text.split(", "), want.split(", ")
        first = next(i for i, (a, b) in enumerate(zip(got, ref)) if a != b)
        pytest.fail(f"entry {first}: writer {got[first]!r}, reference {ref[first]!r}")


def _bits(rng, size, exponents):
    """Doubles with random sign and mantissa bits and a biased exponent drawn from exponents."""
    bits = rng.integers(0, 2 ** 52, size, dtype=np.uint64) | (rng.integers(0, 2, size, dtype=np.uint64) << 63)
    bits |= rng.choice(np.asarray(exponents, np.uint64), size) << 52
    return bits.view(np.float64)


def test_the_bulk_writer_matches_the_reference_on_random_bit_patterns():
    """10^6 patterns over the exponents around the fast lane, 2^14 over every exponent.

    Exponents 2^-22 to 2^52 cover the lane (1e-6 < |x| < 1e15) with an
    octave or more on either side; the lane holds about a thirtieth of all
    doubles, so patterns over every exponent (CPython's slow bignum path for
    the rest) add inf, NaN payloads, subnormals and the far exponents.
    """
    rng = np.random.default_rng(2025)
    for values in (_bits(rng, 10 ** 6, range(1023 - 22, 1023 + 53)), _bits(rng, 2 ** 14, range(2048))):
        with np.errstate(invalid="ignore"):
            integral = values == np.trunc(values)
        # the reference writes an array with no integer-valued entry in one `%` pass
        _assert_like_reference([values[~integral], values[integral]])


def test_the_bulk_writer_rounds_ties_to_even():
    # odd integers in [2^52, 2^53) over 2^j have j fraction bits; the 17th
    # significant digit of some is followed by exactly 5
    rng = np.random.default_rng(3)
    odd = rng.integers(2 ** 51, 2 ** 52, 2000, dtype=np.int64) * 2 + 1
    ties = np.concatenate([odd / 2.0 ** j for j in range(1, 12)])
    lane = ties[(ties >= 1e14) & (ties < 1e15)].tolist()  # 17 digits leave two decimals
    assert sum((Fraction(x) * 100).denominator == 2 for x in lane) > 1000
    # in the exponent form x 10^(16-k) is a tie for odd multiples of 2^(k-17):
    # every one in [1e-5, 1e-4) and [1e-6, 1e-5)
    exponent_ties = np.concatenate([np.arange(43, 420, 2) / 2.0 ** 22, np.arange(9, 84, 2) / 2.0 ** 23])
    assert all((Fraction(x) * 10 ** (16 - math.floor(math.log10(x)))).denominator == 2 for x in exponent_ties)
    _assert_like_reference(np.concatenate([ties, -ties, exponent_ties, -exponent_ties]))


def test_no_double_in_the_fast_lane_carries_to_an_18th_digit():
    # the kernel has no carry branch: the double just below each power of ten
    # in the lane rounds, at 17 digits, to 99999999999999999 or less
    for j in range(-5, 16):
        p = Fraction(10) ** j
        x = float(p)
        while Fraction(x) >= p:
            x = math.nextafter(x, 0.0)
        assert Fraction(x) * Fraction(10) ** (17 - j) <= 10 ** 17 - 8


def test_no_double_in_the_exponent_lane_prints_a_bare_point():
    # the kernel writes a point in every exponent-form entry; only a double
    # next to some d 10^k could print as d, without one, since doubles here lie
    # more than a 17th-digit unit apart, and none does
    for k in (-6, -5):
        for d in range(1, 10):
            x = float(Fraction(d) * Fraction(10) ** k)
            for y in (math.nextafter(x, 0.0), x, math.nextafter(x, 1.0)):
                assert y <= 1e-6 or "." in f"{y:.17g}"


def test_the_lane_stops_at_1e_6_where_the_exponent_leaves_two_digits(monkeypatch):
    # the double nearest 1e-6 lies below 10^-6, so %.17g prints it as
    # 9.9999999999999995e-07 and 10^23 is not a double: it and everything
    # below it take _format_float; the double above it and 1e-4's neighbours
    # take the lane
    calls = []
    monkeypatch.setattr(jsonio, "_format_float", lambda x: calls.append(x) or f"{x:.17g}")
    near = []
    for p in (1e-6, 1e-5, 1e-4):  # three ulps either side
        below = above = p
        near.append(p)
        for _ in range(3):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, 1.0)
            near += [below, above]
    values = near + [-x for x in near]
    text, _ = jsonio._format_chunk(np.array(values))
    assert sorted(calls) == sorted(x for x in values if abs(x) <= 1e-6)
    assert text == "".join(f"{x:.17g}, " for x in values)


def test_the_bulk_writer_at_powers_of_ten_and_special_values():
    below = above = [np.array([float(f"1e{e}") for e in range(-6, 18)])]
    for _ in range(3):  # three ulps either side
        below = below + [np.nextafter(below[-1], 0.0)]
        above = above + [np.nextafter(above[-1], np.inf)]
    near = np.concatenate(below + above[1:])
    tiny = np.array([5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-310])
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, 2.0 ** 52, 2.0 ** 53 + 2, 1e15 - 0.125,
                        1e15, 123456789012345.0, 0.5, 0.25, 99999.99999999999, 9.9999999999999995e-5])
    integral = np.arange(-3000.0, 3000.0) * 7919.0
    values = np.concatenate([near, -near, tiny, -tiny, special, integral])
    _assert_like_reference(np.tile(values, 3))


def test_the_bulk_writer_at_every_largest_magnitude():
    # the layout's integer width follows the largest k in a kernel call, so
    # each decade up to 1e14 is the top of its own call; smaller entries and
    # signs share it
    rng = np.random.default_rng(11)
    for j in range(-7, 17):
        values = rng.uniform(1.0, 10.0, 600) * 10.0 ** j
        values[::3] /= 10.0 ** rng.integers(1, 6, 200)
        values[::5] *= -1
        values[-1] = np.nextafter(10.0 ** (j + 1), 0.0)
        _assert_like_reference(values)


@pytest.mark.parametrize("sizes", [
    [jsonio._BULK_MIN - 1], [jsonio._BULK_MIN], [jsonio._BULK_MIN + 1],
    [jsonio._CHUNK - 1], [jsonio._CHUNK], [jsonio._CHUNK + 1], [2 * jsonio._CHUNK + 3],
    [300] * 60, [1, jsonio._CHUNK - 1, 1, 0, 2, jsonio._BULK_MIN], [jsonio._BULK_MIN // 2] * 2,
])
def test_the_bulk_writer_across_the_crossover_and_chunk_edges(sizes):
    rng = np.random.default_rng(sum(sizes))
    arrays = [rng.standard_normal(n) / rng.uniform(1, 40) for n in sizes]
    for a in arrays[::2]:
        a[::7] = np.round(a[::7])  # integer-valued entries take the fallback in either route
    _assert_like_reference({"rows": arrays, "n": len(sizes)})


@pytest.mark.parametrize("sizes", [[jsonio._CHUNK - 2, 5], [jsonio._CHUNK + 7], [3, 2 * jsonio._CHUNK, 1]])
def test_the_bulk_writer_across_chunk_edges_in_every_layout(sizes):
    # fixed and exponent forms, both signs and the slow entries in one chunk,
    # with arrays that start and end inside a chunk
    rng = np.random.default_rng(len(sizes) + sum(sizes))
    arrays = [rng.standard_normal(n) * 10.0 ** rng.integers(-8, 4, n) for n in sizes]
    arrays[0][::11] = np.round(arrays[0][::11])
    _assert_like_reference({"rows": arrays})


def test_a_repeated_string_list_is_written_like_the_reference():
    # one list object under many keys is joined once; lists made on the fly
    # (a string array's tolist) are freed after writing and their ids reused,
    # so the writer must not match them by id alone
    rng = np.random.default_rng(4)
    domain = ["a", 'q"', "x\ny", "é"]
    doc = {
        "eigenfunctions": [{"domain": domain, "values": rng.standard_normal(4)} for _ in range(300)],
        "arrays": [np.array(["u", "v"]), np.array(["u", "w"]), np.array(["x\ny"]), np.array(["u", "v"])],
        "copies": [list(domain), domain[:2], tuple(domain), domain, []],
    }
    _assert_like_reference(doc, sort_keys=True)
    _assert_like_reference(doc)


@pytest.mark.filterwarnings("ignore:the matrix subclass:PendingDeprecationWarning")
def test_the_bulk_writer_in_nested_documents():
    rng = np.random.default_rng(8)
    doc = {
        "z": {"b": rng.standard_normal(700), "a": [rng.standard_normal((40, 30)), "x"]},
        3: [{"values": rng.standard_normal(10), "ids": ["1", "2"]}, np.array([[1.5, np.nan]])],
        "a": (rng.standard_normal((2, 0)), np.zeros((0, 3)), np.float64(0.1), rng.integers(0, 9, 4)),
        "m": [np.asmatrix(rng.standard_normal((3, 2))), rng.standard_normal((2, 3, 4))],
    }
    _assert_like_reference(doc, sort_keys=True)
    _assert_like_reference(doc)


@pytest.fixture
def capture(capsys):
    def invoke(*argv):
        code = steklov.cli.run(list(argv))
        return code, capsys.readouterr().out
    return invoke


def _counted(monkeypatch, name):
    calls = []
    inner = getattr(jsonio, name)
    monkeypatch.setattr(jsonio, name, lambda *args: calls.append(args) or inner(*args))
    return calls


SIX_FAMILIES = {
    "unit_path3": {}, "unit_square": {}, "unit_square_diag": {},
    "weighted_path3": {"n": 3.0, "K": 1.0, "m": 1.0}, "weighted_square": {"K": 1.0, "m": 1.0},
    "complete_interior": {"interior_size": 4, "n": 10.0, "K": 1.0, "m": 1.0},
}


def test_large_reports_take_the_kernel_and_small_ones_keep_the_percent_route(capture, tmp_path, monkeypatch):
    bg = random_boundary_graph(np.random.default_rng(25), 300, 300, extra_edge_prob=0.02)
    path = tmp_path / "random300.json"
    path.write_text(serialize_graph(bg))
    kernel, percent = _counted(monkeypatch, "_format_chunk"), _counted(monkeypatch, "_format_floats")
    for family, params in SIX_FAMILIES.items():
        small = tmp_path / f"{family}.json"
        small.write_text(serialize_graph(make_example(family, **params)))
        for command in ("spectrum", "steklov"):
            assert capture(command, "--graph", str(small))[0] == 0
    assert not kernel and len(percent) >= 6 * 2 * 3  # values and at least two eigenfunctions each

    percent.clear()
    outputs = {command: capture(command, "--graph", str(path)) for command in ("spectrum", "steklov")}
    n, b = bg.graph.num_vertices, len(bg.boundary)
    # each report's float64 arrays: the values and one eigenfunction per value
    assert n >= 300 and len(kernel) == -(-(n + n * n) // jsonio._CHUNK) + -(-(b + b * b) // jsonio._CHUNK)
    assert not percent
    monkeypatch.setattr(steklov.cli, "format_json", reference_format_json)
    for command, (code, out) in outputs.items():
        assert code == 0 and capture(command, "--graph", str(path)) == (code, out)


def test_only_entries_off_the_lane_reach_the_scalar_formatter(capture, tmp_path, monkeypatch):
    # the lane covers 1e-6 < |x| < 1e15 but for integer values; on this
    # 300-vertex spectrum report the rest is 87 of 90,300 entries (with the
    # lane stopping at 1e-4 it was 2,802)
    bg = random_boundary_graph(np.random.default_rng(25), 300, 300, extra_edge_prob=0.02)
    path = tmp_path / "random300.json"
    path.write_text(serialize_graph(bg))
    spec = steklov.laplacian_spectrum(bg.graph)
    floats = np.concatenate([spec.values, spec.vectors.ravel()])
    off_lane = ~((np.abs(floats) > 1e-6) & (np.abs(floats) < 1e15) & (floats != np.trunc(floats)))
    scalar = _counted(monkeypatch, "_format_float")
    code, out = capture("spectrum", "--graph", str(path))
    assert code == 0
    assert len(scalar) == np.count_nonzero(off_lane) < floats.size // 500
    assert sorted(x for x, in scalar) == sorted(floats[off_lane].tolist())
