"""The JSON text of both commands' output: ``json.dumps(obj, indent=2,
sort_keys=True)`` byte for byte, without the pure-Python encoder that
``indent`` sends ``json.dumps`` to.

Strings go through the C string encoder of ``json.encoder``; each container
is one ``str.join``.  Floats follow ``json``: ``float.__repr__``, with
``NaN``, ``Infinity`` and ``-Infinity`` for the non-finite ones.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote

_INF = float("inf")


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, for dicts with str keys
    (any other key raises ``TypeError``)."""
    return _write(obj, "\n")


def _write(obj, pad: str) -> str:
    """The text of ``obj``; ``pad`` is the newline and indentation that
    precede its closing bracket."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        return "{" + inner + ("," + inner).join([
            _quote(k) + ": " + (_quote(v) if type(v) is str else _write(v, inner))
            for k, v in sorted(obj.items())]) + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        return "[" + inner + ("," + inner).join([
            _quote(v) if type(v) is str else _write(v, inner) for v in obj]) + pad + "]"
    return _scalar(obj)


def _scalar(obj) -> str:
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if obj == _INF:
            return "Infinity"
        return "-Infinity" if obj == -_INF else float.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")

