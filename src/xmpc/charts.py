"""Deterministic SVG bar charts for Shapley attributions.

Hand-assembled SVG rather than a plotting library: the explanation documents
must be byte-identical across reruns, and fixed-precision string formatting
of every coordinate is the simplest way to guarantee that.
"""

from __future__ import annotations

from .shapley import Attribution

_WIDTH = 640
_ROW_H = 28
_BAR_H = 16
_AXIS_X = 330.0
_BAR_SPAN = 240.0
_POS_FILL = "#d62728"
_NEG_FILL = "#1f77b4"
_FONT = 'font-family="Helvetica,Arial,sans-serif" font-size="13"'

# The faithfulness contract is that every numeral in a document or chart can
# be traced back to a record or attribution value, so all rendering funnels
# through these helpers (``fmt_value`` for every one-decimal temperature,
# power and feature value) and the tests reuse them to build the expected
# value set.  SVG coordinates are layout, not numerals, and keep their own
# fixed precision.


def fmt_value(v: float) -> str:
    return f"{v:.1f}"


def fmt_mean(v: float) -> str:
    return f"{v:.2f}"


def fmt_phi(v: float) -> str:
    return f"{v:+.2f}"


def ranking_order(attribution: Attribution) -> list[int]:
    """Feature indices sorted by |phi| descending, ties by schema order."""
    phi = attribution.shapley_values
    return sorted(range(len(phi)), key=lambda i: (-abs(phi[i]), i))


def attribution_chart_svg(attribution: Attribution, title: str) -> str:
    """Horizontal bar chart: one bar per feature, positive right, negative left."""
    order = ranking_order(attribution)
    n = len(order)
    height = 58 + n * _ROW_H + 34
    max_abs = max(abs(float(v)) for v in attribution.shapley_values) or 1.0
    scale = _BAR_SPAN / max_abs

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{height}" '
        f'viewBox="0 0 {_WIDTH} {height}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{height}" fill="#ffffff"/>',
        f'<text x="{_WIDTH // 2}" y="22" text-anchor="middle" {_FONT} '
        f'font-weight="bold">{_esc(title)}</text>',
        f'<line x1="{_AXIS_X:.1f}" y1="40" x2="{_AXIS_X:.1f}" y2="{40 + n * _ROW_H + 8}" '
        f'stroke="#888888" stroke-width="1"/>',
    ]
    for row, i in enumerate(order):
        phi = float(attribution.shapley_values[i])
        value = float(attribution.feature_values[i])
        y_top = 48 + row * _ROW_H
        y_mid = y_top + _BAR_H - 3
        width = abs(phi) * scale
        if phi >= 0:
            x, fill = _AXIS_X, _POS_FILL
            label_x, anchor = _AXIS_X + width + 6, "start"
        else:
            x, fill = _AXIS_X - width, _NEG_FILL
            label_x, anchor = _AXIS_X - width - 6, "end"
        name = attribution.feature_names[i]
        parts.append(
            f'<text x="{_AXIS_X - _BAR_SPAN - 12:.1f}" y="{y_mid}" text-anchor="end" {_FONT}>'
            f"{_esc(name)} = {fmt_value(value)}</text>"
        )
        parts.append(
            f'<rect x="{x:.2f}" y="{y_top}" width="{width:.2f}" height="{_BAR_H}" fill="{fill}"/>'
        )
        parts.append(
            f'<text x="{label_x:.2f}" y="{y_mid}" text-anchor="{anchor}" {_FONT}>'
            f"{fmt_phi(phi)}</text>"
        )
    footer_y = 48 + n * _ROW_H + 24
    parts.append(
        f'<text x="{_WIDTH // 2}" y="{footer_y}" text-anchor="middle" {_FONT}>'
        f"expected value = {fmt_mean(attribution.base_value)}, "
        f"prediction = {fmt_mean(attribution.prediction)}</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
