"""Canonical JSON serialization.

Reports and artifacts are compared byte for byte across reruns, so floats
are always written with 17 significant digits (enough to round-trip an IEEE
double), keys are sorted, and the layout is fixed.  Negative zero is written
as ``0``, like every integral float, so the sign of a zero is dropped.  With
that, canonical text is a fixed point of its own parse:
``canonical_dumps(json.loads(t)) == t``.  NaN and infinities are not
representable in JSON; builders write an infinite exponent as the string
``"inf"`` (`SmoothnessParams.to_dict`), and `canonical_dumps` raises if a
non-finite float slips through.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import ConfigError


def _all_floats(items) -> bool:
    """Whether every item of a list is a plain Python float."""
    return set(map(type, items)) == {float}


def sanitize(obj):
    """Recursively convert numpy containers/scalars to plain Python types."""
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if _all_floats(obj):
            return list(obj)
        return [sanitize(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def format_float(x: float) -> str:
    """Text of one float in canonical output: 17 significant digits.

    Adding ``0.0`` maps ``-0.0`` to ``0.0`` and leaves every other double
    unchanged, so negative zero is written as ``0``; ``-0`` would parse back
    as the int ``0`` and break the fixed point.
    """
    return format(x + 0.0, ".17g")


def _write(obj, parts, indent):
    pad = "  " * indent
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ConfigError("non-finite float in canonical JSON output")
        parts.append(format_float(obj))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        keys = sorted(obj)
        for i, k in enumerate(keys):
            parts.append(pad + "  " + json.dumps(str(k)) + ": ")
            _write(obj[k], parts, indent + 1)
            parts.append(",\n" if i + 1 < len(keys) else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not len(obj):
            parts.append("[]")
            return
        if _all_floats(obj):
            # a flat list of floats: one finiteness check, one join
            if not all(map(math.isfinite, obj)):
                raise ConfigError("non-finite float in canonical JSON output")
            item = pad + "  "
            parts.append("[\n" + item + (",\n" + item).join(
                [format(x + 0.0, ".17g") for x in obj]) + "\n" + pad + "]")
            return
        parts.append("[\n")
        for i, v in enumerate(obj):
            parts.append(pad + "  ")
            _write(v, parts, indent + 1)
            parts.append(",\n" if i + 1 < len(obj) else "\n")
        parts.append(pad + "]")
    else:
        raise ConfigError(f"cannot serialize object of type {type(obj).__name__}")


def canonical_dumps(obj) -> str:
    """Serialize `obj` to the canonical JSON text (trailing newline included)."""
    parts = []
    _write(sanitize(obj), parts, 0)
    parts.append("\n")
    return "".join(parts)


def read_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
