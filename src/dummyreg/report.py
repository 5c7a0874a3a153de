"""Render fit results as publication-style tables.

Text output mimics the familiar regression-table conventions: values
rounded half-away-from-zero, leading zeros dropped on magnitudes below
one (".16", "-.51"), p-values under .01 shown as "<.01", one labeled
"reference" row per categorical variable, and "Main effects" /
"Interaction effects" sections when the model has interactions. JSON
output is full precision with a stable key order.
"""

from __future__ import annotations

import math
from typing import Mapping

from .solve import FitResult, one_tailed_p

P_DISPLAY_FLOOR = 0.01


def format_value(value: float, places: int = 2) -> str:
    """Fixed-point text, ties away from zero, no leading zero below 1.

    The digits rounded are those of repr(value), the shortest text that
    reads back as the value, so 2.675 reads "2.68" though the float is
    below 2.675.
    """
    if places < 0:
        raise ValueError(f"places must be >= 0, got {places}")
    value = float(value)
    if not math.isfinite(value):
        return str(value)
    text = repr(value)
    sign, text = ("-", text[1:]) if text.startswith("-") else ("", text)
    mantissa, _, exponent = text.partition("e")
    whole, _, fraction = mantissa.partition(".")
    digits = whole + fraction
    # The value times 10**places is digits[:cut], then a fraction that
    # starts with the digit at cut.
    cut = len(whole) + int(exponent or 0) + places
    head, up = (digits[:cut], digits[cut:cut + 1] >= "5") if cut >= 0 else ("", False)
    scaled = str(int(head or "0") + up) + "0" * (cut - len(head))
    scaled = scaled.rjust(places + 1, "0")
    if not places:
        return sign + scaled
    integer = scaled[:-places]
    return f"{sign}{'' if integer == '0' else integer}.{scaled[-places:]}"


def format_p(p: float, places: int = 2) -> str:
    """P-value text: "<.01" below the display floor, else fixed-point to
    at least the floor's two places, so no p above it reads smaller."""
    p = float(p)
    if math.isfinite(p) and p < P_DISPLAY_FLOOR:
        return f"<{format_value(P_DISPLAY_FLOOR, 2)}"
    return format_value(p, max(places, 2))


def _layout(rows: list[tuple[str, ...]], n_cols: int) -> str:
    widths = [0] * n_cols
    for row in rows:
        if len(row) == 1:
            continue
        for j, cell in enumerate(row):
            widths[j] = max(widths[j], len(cell))
    lines = []
    for row in rows:
        if len(row) == 1:
            lines.append(row[0])
            continue
        cells = [row[0].ljust(widths[0])]
        cells += [row[j].rjust(widths[j]) for j in range(1, n_cols)]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"


def render_text(
    fit: FitResult,
    refs: Mapping[str, str] | None = None,
    rounding: int = 2,
    one_tailed: tuple[str, str] | None = None,
) -> str:
    """Fixed-width coefficient table.

    refs maps categorical variables to their omitted level and drives
    the "reference" marker rows. one_tailed = (label, direction) adds a
    one-tailed p-value column filled in for that row only.
    """
    refs = dict(refs or {})
    headers = ["", "coefficients", "standard error", "t-value",
               "p-value (2-tailed)"]
    extra_index = -1
    extra_text = ""
    if one_tailed is not None:
        label, direction = one_tailed
        extra_index = fit.index_of(label)
        extra_text = format_p(one_tailed_p(fit, label, direction), rounding)
        headers.append(f"p-value (1-tailed, {direction})")
    n_cols = len(headers)
    blank = [""] * (n_cols - 2)

    sectioned = any(label.interaction for label in fit.labels)
    rows: list[tuple[str, ...]] = [tuple(headers)]
    section = None
    emitted_refs: set[str] = set()
    for i, label in enumerate(fit.labels):
        if sectioned:
            wanted = "Interaction effects" if label.interaction else "Main effects"
            if wanted != section:
                if section is not None:
                    rows.append(("",))
                rows.append((wanted,))
                section = wanted
        for variable in label.variables:
            if variable in refs and variable not in emitted_refs:
                emitted_refs.add(variable)
                rows.append((f"{variable}[{refs[variable]}]", "reference", *blank))
        cells = [
            label.text,
            format_value(fit.coefficients[i], rounding),
            format_value(fit.stderr[i], rounding),
            format_value(fit.t_values[i], rounding),
            format_p(fit.p_two_tailed[i], rounding),
        ]
        if one_tailed is not None:
            cells.append(extra_text if i == extra_index else "")
        rows.append(tuple(cells))
    return _layout(rows, n_cols)


def _json_number(value: float, sigma: float = 0.0) -> float | None:
    """value as a JSON number: null when it is not finite (an overflowed
    RSS makes σ² inf), which JSON cannot spell, or when it is a square
    of sigma's scale (RSS, σ²) that underflowed to 0 though sigma did not."""
    value = float(value)
    return value if math.isfinite(value) and (value or not sigma) else None


def render_json(
    fit: FitResult,
    refs: Mapping[str, str] | None = None,
    scheme: str | None = None,
) -> dict:
    """Machine-readable fit summary with unrounded values; a value that
    is not finite, or an RSS or σ² that underflowed, is null."""
    return {
        "coefficients": [
            {
                "label": label.text,
                "term": label.term,
                "estimate": _json_number(fit.coefficients[i]),
                "stderr": _json_number(fit.stderr[i]),
                "t": _json_number(fit.t_values[i]),
                "p_two_tailed": _json_number(fit.p_two_tailed[i]),
            }
            for i, label in enumerate(fit.labels)
        ],
        "df_residual": int(fit.df_residual),
        "sigma2": _json_number(fit.sigma2, fit.sigma),
        "rss": _json_number(fit.rss, fit.sigma),
        "r_squared": _json_number(fit.r_squared),
        "n_rows": fit.design.n_rows,
        "scheme": scheme,
        "references": dict(refs or {}),
    }
