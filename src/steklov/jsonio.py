"""Deterministic JSON writer with a fixed byte contract.

Reports must be byte-identical across runs, so the standard encoder is not
used. Floats: `.1f` when integer-valued with |x| < 1e16 (`2.0`, `-0.0`),
`.17g` otherwise (an exact round-trip for doubles); infinities and NaN are
the strings "inf", "-inf" and "nan". Strings: `"` and `\\` are
backslash-escaped and U+0000-U+001F become `\\uXXXX` (a newline is `\\u000a`).
1-D float64 arrays and lists of strings are written in bulk, with the same bytes.
"""

import math

import numpy as np

_ESCAPES = {c: f"\\u{c:04x}" for c in range(0x20)} | {ord('"'): '\\"', ord("\\"): "\\\\"}


def _format_float(x):
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if math.isnan(x):
        return '"nan"'
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return f"{x:.17g}"


def _format_floats(a):
    """A 1-D float64 array: one `%.17g` pass when every entry is finite and not integer-valued."""
    if np.isfinite(a).all() and (a != np.trunc(a)).all():
        return "[" + ", ".join(["%.17g"] * a.size) % tuple(a.tolist()) + "]"
    return "[" + ", ".join(map(_format_float, a.tolist())) + "]"


def format_json(obj, sort_keys=False):
    """Serialize nested dicts/lists/scalars to deterministic JSON text."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return f'"{obj.translate(_ESCAPES)}"'
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, np.ndarray):
        if obj.ndim == 1 and obj.dtype == np.float64:
            return _format_floats(obj)
        return format_json(obj.tolist(), sort_keys=sort_keys)
    if isinstance(obj, dict):
        keys = sorted(obj, key=str) if sort_keys else list(obj)
        items = (f'"{str(k).translate(_ESCAPES)}": {format_json(obj[k], sort_keys=sort_keys)}' for k in keys)
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        try:
            joined = "".join(obj)  # a TypeError unless every item is a string
        except TypeError:
            return "[" + ", ".join(format_json(v, sort_keys=sort_keys) for v in obj) + "]"
        if joined.translate(_ESCAPES) != joined:  # escape item by item only when needed
            obj = [s.translate(_ESCAPES) for s in obj]
        return '["' + '", "'.join(obj) + '"]' if obj else "[]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")
