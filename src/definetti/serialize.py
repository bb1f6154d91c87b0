"""Deterministic text rendering for reports and law files.

Reals are rendered with 17 significant digits so a double survives a
parse/re-render round trip byte-identically; +infinity is rendered as the
string "inf" in both CSV and JSON output.  JSON keys keep insertion order,
so callers control the byte layout completely.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np


def fmt_real(x: float | None) -> str:
    """17-significant-digit decimal form; '' for None, 'inf' for +infinity."""
    if x is None:
        return ""
    x = float(x)
    if math.isinf(x):
        if x < 0:
            raise ValueError("-inf is not serializable")
        return "inf"
    if math.isnan(x):
        raise ValueError("NaN is not serializable")
    return format(x, ".17g")


def parse_real(text: str) -> float | None:
    """Inverse of fmt_real."""
    if text == "":
        return None
    if text == "inf":
        return math.inf
    return float(text)


def render_json(obj: Any, indent: int = 0) -> str:
    """Render ``obj`` as JSON text with 17g reals and insertion-ordered keys."""
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isinf(x):
            return '"inf"'
        return fmt_real(x)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(key))}: {render_json(val, indent + 1)}"
            for key, val in obj.items()
        )
        # one f-string, so a large report (an optimizer trace) is copied once
        return f"{{\n{inner}\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(f"{pad}  {render_json(v, indent + 1)}" for v in obj)
        return f"[\n{inner}\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")
