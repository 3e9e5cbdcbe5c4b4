"""Deterministic JSON writer with a fixed byte contract.

Reports must be byte-identical across runs, so the standard encoder is not
used. Floats: `.1f` when integer-valued with |x| < 1e16 (`2.0`, `-0.0`),
`.17g` otherwise (an exact round-trip for doubles); infinities and NaN are
the strings "inf", "-inf" and "nan". Strings: `"` and `\\` are
backslash-escaped and U+0000-U+001F become `\\uXXXX` (a newline is `\\u000a`).
Booleans, numpy's included, are `true` and `false`.

`format_json` walks the document once into a list of text parts and joins
them. A list of strings is written with one join, once per document.
Float64 arrays (a 2-D array is a list of its rows) are set aside and
written after the walk: a report with fewer than `_BULK_MIN` of their
floats writes each array with one `%` pass (`_format_float` per entry where
one pass over the report finds an entry integer-valued or not finite); a
larger one runs them all, `_CHUNK` floats at a time, through one array
kernel, `_format_chunk`, cutting each array's text from its chunks' texts.

The kernel's fast lane takes the entries that are finite, not
integer-valued and in 1e-6 < |x| < 1e15; every other entry goes through
`_format_float`. With k = floor(log10 |x|), `%.17g` prints the 17-digit
integer nearest to |x|·10^(16-k), ties to even, placed around the point
(d.ddd…e-05 or e-06 when k < -4). That product is formed exactly:
10^(16-k) (at most 1e22, hence the lane's end: the double nearest 1e-6 has
k = -7) is a double, and Dekker's TwoProduct with Veltkamp's split gives
|x|·10^(16-k) = hi + lo exactly. The k from `log10` is checked against the
exact product, which must lie in [1e16, 1e17), and moved by one where it
does not. hi >= 1e16 > 2^53 is an even integer, so hi + rint(lo) is the
nearest integer with ties to even. 17 digits are finer than the spacing of
doubles, so no entry's digits carry to 10^17 (the double below each power
of ten in the lane lies at least 8 units of the 17th digit below it) and
every entry keeps a nonzero fraction digit. The digits are then laid out as
text, a column per entry of a byte table: sign, integer part (`0` when
-4 <= k < 0, the first digit when k < -4), point, the zeros after the point
when -4 <= k < 0, the fraction with its trailing zeros stripped, and the
exponent in four places the fraction's span leaves free; each text's length
follows from the layout. `tests/test_jsonio.py` compares the writer with
`tests/oracles.py`'s reference on a million random doubles, ties, powers of
ten and special values.
"""

import functools
import itertools
import math

import numpy as np

_ESCAPES = {c: f"\\u{c:04x}" for c in range(0x20)} | {ord('"'): '\\"', ord("\\"): "\\\\"}

# Below this many float64 array entries in one report the kernel's fixed cost
# of about 60 numpy calls exceeds what it saves over `%` (0.8 us a float).
_BULK_MIN = 512
# Floats per kernel call: large enough to spread the fixed cost, small enough
# that every temporary array stays a few hundred kB.
_CHUNK = 8192

_POW10_FLOAT = np.array([float(10 ** e) for e in range(23)])  # every one an exact double
# per k + 4 (k = -4 .. 14): 10^(16-k) (10^17 for k < 0), 10^(4-k) (1 for k > 4), 10^(4+k), 10^(k-4) (1 for k < 4)
_SPLIT_POW10 = np.array([[10 ** min(16 - k, 17), 10 ** max(4 - k, 0), 10 ** (4 + k), 10 ** max(k - 4, 0)]
                         for k in range(-4, 15)])
_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp's constant for doubles


def _format_float(x):
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if math.isnan(x):
        return '"nan"'
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return f"{x:.17g}"


def _format_floats(a, plain):
    """A 1-D float64 array: one `%.17g` pass when plain, that is every entry finite and not integer-valued."""
    if plain:
        return "[" + ", ".join(["%.17g"] * a.size) % tuple(a.tolist()) + "]"
    return "[" + ", ".join(map(_format_float, a.tolist())) + "]"


def _two_product(a, b):
    """hi, lo with hi = fl(a b) and hi + lo = a b exactly (Dekker, Veltkamp)."""
    hi = a * b
    t = _SPLITTER * a
    a1 = t - (t - a)
    a2 = a - a1
    t = _SPLITTER * b
    b1 = t - (t - b)
    b2 = b - b1
    return hi, ((a1 * b1 - hi) + a1 * b2 + a2 * b1) + a2 * b2


def _significands(x, k):
    """The nearest integer to x·10^(16-k), ties to even; k is corrected in place to give 17 digits."""
    hi, lo = _two_product(x, _POW10_FLOAT[16 - k])
    off = np.flatnonzero((hi <= 1e16) | (hi >= 1e17))  # the entries whose k may be off by one
    if off.size:
        low = (hi[off] < 1e16) | ((hi[off] == 1e16) & (lo[off] < 0))
        high = (hi[off] > 1e17) | ((hi[off] == 1e17) & (lo[off] >= 0))
        k[off] += high.astype(k.dtype) - low
        hi[off], lo[off] = _two_product(x[off], _POW10_FLOAT[16 - k[off]])
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _ascii_digits(g):
    """(r, m) uint16 integers below 10**4 -> (4 r, m) ASCII digits, most significant first."""
    hi = g // 100
    lo = g - hi * 100
    out = np.empty((g.shape[0], 4, g.shape[1]), np.uint8)
    t = hi // 10
    out[:, 0] = t
    out[:, 1] = hi - t * 10
    t = lo // 10
    out[:, 2] = t
    out[:, 3] = lo - t * 10
    out += 48
    return out.reshape(-1, g.shape[1])


def _lane_digits(x):
    """k = floor(log10 x) and the 17 digits of each x > 1e-6 as rows of ASCII digits.

    The integer part (k + 1 digits; 0 when -4 <= k < 0; one when k < -4) is
    right-aligned in the first 4 ng rows, ng = max(k, 0) // 4 + 1, so that
    there are at least max(k) + 1 of them; the fraction is left-aligned in the last 20.
    """
    k = np.maximum(np.floor(np.log10(x)), -6).astype(np.intp)  # a log10 one unit low must not index past 10^22
    n = _significands(x, k)
    # the powers of ten that split n: the exponent form (k < -4) is laid out as k = 0
    unit, unit12, scale8, scale12 = _SPLIT_POW10.take(np.where(k < -4, 4, k + 4), axis=0).T
    ip = n // unit
    frac = n - ip * unit
    # the fraction as a 12-digit and an 8-digit integer
    f12 = frac // unit12
    f8 = (frac - f12 * unit12) * scale8
    f12 *= scale12
    ng = max(int(k.max()), 0) // 4 + 1
    groups = np.empty((ng + 5, x.size), np.uint16)  # 4-digit groups
    for j in range(ng - 1, 0, -1):
        q = ip // 10 ** 4
        groups[j] = ip - q * 10 ** 4
        ip = q
    groups[0] = ip
    q = f12 // 10 ** 4
    groups[ng + 2] = f12 - q * 10 ** 4
    groups[ng] = f12 = q // 10 ** 4
    groups[ng + 1] = q - f12 * 10 ** 4
    groups[ng + 3] = q = f8 // 10 ** 4
    groups[ng + 4] = f8 - q * 10 ** 4
    return k, _ascii_digits(groups)


def _format_chunk(a):
    """The text of a 1-D float64 array, each entry followed by ", ", and each entry's text length.

    The text is built as a (width, m) byte table, one column per entry with NUL
    where it has no character, and compacted at the end.
    """
    m = a.size
    ax = np.abs(a)
    with np.errstate(invalid="ignore"):  # trunc of NaN
        fast = (ax > 1e-6) & (ax < 1e15) & (a != np.trunc(a))
    # entries off the lane are laid out as 0.5, then replaced
    k, digits = _lane_digits(np.where(fast, ax, 0.5))
    kmax = max(int(k.max()), 0)
    fraction = digits[-20:]
    kept = ((fraction != 48) * np.arange(1, 21, dtype=np.uint8)[:, None]).max(axis=0)  # to the last nonzero
    expo = np.flatnonzero(k < -4)  # d.ddd...e-05 or e-06: the exponent takes the fraction's last 4 places
    wi, wf = kmax + 2, int(kept.max())  # a sign place and kmax + 1 digits; the longest fraction
    if expo.size:
        wf = max(wf, int(kept[expo].max()) + 4)
    slow = np.flatnonzero(~fast)
    texts = [_format_float(v).encode() for v in a[slow].tolist()]
    width = max([wi + 1 + wf] + [len(t) for t in texts]) + 2
    table = np.zeros((width, m), np.uint8)
    o = width - 2 - (wi + 1 + wf)
    top = np.maximum(k, 0)  # integer digits less one
    lead = wi - 1 - top  # places before the first digit
    # the digits hold at least kmax + 1 integer rows; row o is the sign's alone
    np.multiply(digits[-21 - kmax:-20], np.arange(1, wi)[:, None] >= lead, out=table[o + 1:o + wi])
    table[o + wi] = 46
    np.multiply(fraction[:wf], np.arange(wf, dtype=np.uint8)[:, None] < kept, out=table[o + wi + 1:o + wi + 1 + wf])
    table[width - 6:width - 3, expo] = np.array([[101], [45], [48]], np.uint8)  # "e-0"
    table[width - 3, expo] = 48 - k[expo]
    sign = a < 0
    table.reshape(-1)[(o + lead[sign] - 1) * m + np.flatnonzero(sign)] = 45
    # each text's length: sign, top + 1 digits, point, kept digits, exponent, ", "
    sizes = sign + top + kept + 4
    sizes[expo] += 4
    if texts:
        table[:width - 2, slow] = np.array(texts, f"S{width - 2}").view(np.uint8).reshape(-1, width - 2).T
        sizes[slow] = [len(t) + 2 for t in texts]
    table[-2:] = [[44], [32]]
    del ax, digits, fraction  # the compaction's copies are the chunk's largest arrays
    text = table.T.tobytes()
    del table
    return text.translate(None, b"\0").decode("ascii"), sizes


def _join(parts, arrays):
    """The text of parts with each array's place filled, `_CHUNK` floats per kernel call.

    Each array's text is cut from its chunks' texts straight into the list the
    document is joined from, so every character is copied twice.
    """
    sizes = [a.size for _, a in arrays]
    if sum(sizes) < _BULK_MIN:  # which arrays are plain, from one pass over the report's floats
        values = np.concatenate([a for _, a in arrays])
        with np.errstate(invalid="ignore"):  # trunc of a signalling NaN
            plain = np.isfinite(values) & (values != np.trunc(values))
        plain = np.logical_and.reduceat(plain, list(itertools.accumulate(sizes[:-1], initial=0)))
        for (i, a), ok in zip(arrays, plain.tolist()):
            parts[i] = _format_floats(a, ok)
        return "".join(parts)
    todo = iter(arrays)
    place, a = next(todo)
    first, out, done = 0, [], 0  # the document's text in order; parts[:done] are in out
    while a is not None:
        chunk = []  # (place, array, first, stop) for each array part in this chunk
        room = _CHUNK
        while room and a is not None:
            stop = min(a.size, first + room)
            chunk.append((place, a, first, stop))
            room -= stop - first
            first = stop
            if stop == a.size:
                place, a = next(todo, (None, None))
                first = 0
        text, sizes = _format_chunk(np.concatenate([b[s:e] for _, b, s, e in chunk]))
        starts = itertools.accumulate([e - s for _, _, s, e in chunk[:-1]], initial=0)
        ends = itertools.accumulate(np.add.reduceat(sizes, list(starts)).tolist())  # where each part's text ends
        begin = 0
        for (i, b, s, e), end in zip(chunk, ends):
            if not s:
                out += (*parts[done:i], "[")
                done = i + 1
            if e < b.size:
                out.append(text[begin:end])
            else:
                out += (text[begin:end - 2], "]")  # no ", " after the array's last entry
            begin = end
    out += parts[done:]
    return "".join(out)


@functools.lru_cache(maxsize=4096, typed=True)  # reports repeat a few keys many times
def _key_text(key):
    return f'"{str(key).translate(_ESCAPES)}": '


def _write(obj, sort_keys, parts, arrays, lists):
    """Append obj's text to parts; a 1-D float64 array leaves a place to fill, noted in arrays.

    lists maps the id of each string list l written to (l, text); holding l keeps its id from reuse.
    """
    if isinstance(obj, str):  # the commonest types first; none of them up to the arrays and lists is a bool or an int
        parts.append(f'"{obj.translate(_ESCAPES)}"')
    elif isinstance(obj, dict):
        parts.append("{")
        for j, key in enumerate(sorted(obj, key=str) if sort_keys else obj):
            parts += (", ", _key_text(key)) if j else (_key_text(key),)
            _write(obj[key], sort_keys, parts, arrays, lists)
        parts.append("}")
    elif isinstance(obj, (float, np.floating)):
        parts.append(_format_float(float(obj)))
    elif isinstance(obj, np.ndarray):
        if obj.dtype != np.float64 or obj.ndim == 0:
            _write(obj.tolist(), sort_keys, parts, arrays, lists)
        elif obj.ndim > 1:
            _write(list(np.asarray(obj)), sort_keys, parts, arrays, lists)  # rows (a matrix's rows stay 2-D)
        elif obj.size:
            arrays.append((len(parts), obj))
            parts.append(None)
        else:
            parts.append("[]")
    elif isinstance(obj, (list, tuple)):
        if id(obj) in lists:
            parts.append(lists[id(obj)][1])
            return
        kinds = set(map(type, obj))
        if kinds == {int}:  # an int list, such as a multiplicity group, in one join
            parts.append("[" + ", ".join(map(str, obj)) + "]")
            return
        if not kinds <= {str}:  # not empty: an empty list is a string list
            for j, v in enumerate(obj):
                parts.append(", " if j else "[")
                _write(v, sort_keys, parts, arrays, lists)
            parts.append("]")
            return
        joined = "".join(obj)
        items = obj if joined.translate(_ESCAPES) == joined else [s.translate(_ESCAPES) for s in obj]
        text = '["' + '", "'.join(items) + '"]' if obj else "[]"
        lists[id(obj)] = obj, text
        parts.append(text)
    elif obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, np.bool_):
        parts.append("true" if obj else "false")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def format_json(obj, sort_keys=False):
    """Serialize nested dicts/lists/scalars to deterministic JSON text."""
    parts, arrays = [], []
    _write(obj, sort_keys, parts, arrays, {})
    return _join(parts, arrays) if arrays else "".join(parts)
