"""Indented JSON text, byte for byte what ``json.dumps(obj, indent=2,
allow_nan=False)`` writes.

``indent`` makes :mod:`json` fall back to its pure-Python encoder, which
costs most of the time of writing a multi-megabyte run record. This writer
walks the object once, appending to one list: strings are quoted by the C
``encode_basestring_ascii``, floats written by ``float.__repr__``, and a
NaN or infinite float raises ValueError, as ``allow_nan=False`` does.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from math import isfinite

_INDENT = "  "
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _float(o: float) -> str:
    if not isfinite(o):
        raise ValueError(f"Out of range float values are not JSON compliant: {o!r}")
    return float.__repr__(o)


def _scalar(o) -> str | None:
    """JSON text of a scalar; None for anything else."""
    t = type(o)
    if t is str:
        return _quote(o)
    if t is float:
        return _float(o)
    if t is int:
        return int.__repr__(o)
    if o is None or o is True or o is False:
        return _CONSTANTS[o]
    if isinstance(o, str):
        return _quote(o)
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    return None


def _key(k) -> str:
    if type(k) is str:
        return _quote(k)
    text = _scalar(k)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
    return text if text[0] == '"' else _quote(text)


def _write(o, out: list, head: str, nl: str):
    """Append ``head`` and then the JSON text of ``o``, whose lines start at indent ``nl``."""
    text = _scalar(o)
    if text is not None:
        out.append(head + text)
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append(head + "[]")
            return
        inner = nl + _INDENT
        sep = head + "[" + inner
        for v in o:
            _write(v, out, sep, inner)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(o, dict):
        if not o:
            out.append(head + "{}")
            return
        inner = nl + _INDENT
        sep = head + "{" + inner
        for k, v in o.items():
            _write(v, out, sep + _key(k) + ": ", inner)
            sep = "," + inner
        out.append(nl + "}")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def dumps_indented(obj) -> str:
    """``json.dumps(obj, indent=2, allow_nan=False)``; dict keys keep their order."""
    out = []
    _write(obj, out, "", "\n")
    return "".join(out)
