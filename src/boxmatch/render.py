"""Deterministic SVG renderings of label-assignment differences.

Ground truth is drawn as dashed white boxes on a dark canvas; each strategy's
positives are outlined (anchors) or dotted (points) in the conventional
colors: red for the static baseline, yellow for localization-guided
classification labels, green for classification-guided localization labels.
The output embeds no timestamps, so identical inputs give identical bytes.
"""

from __future__ import annotations

from typing import Sequence

from .geometry import Box

STRATEGY_COLORS = {
    "static": "#e53935",
    "l2c": "#fdd835",
    "c2l": "#43a047",
}

_BACKGROUND = "#1c1f26"


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _rect(x0: float, y0: float, x1: float, y1: float, color: str, width: float, dash="") -> str:
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(x1 - x0)}" height="{_fmt(y1 - y0)}" '
        f'fill="none" stroke="{color}" stroke-width="{_fmt(width)}"{dash_attr}/>'
    )


def _dot(x: float, y: float, color: str, radius: float) -> str:
    return (
        f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(radius)}" '
        f'fill="{color}" stroke="none"/>'
    )


def render_assignment_svg(
    image_width: int,
    image_height: int,
    gt_boxes: Sequence[Box],
    layers: Sequence[tuple[str, Sequence[Sequence[float]]]],
) -> str:
    """Render GT plus per-strategy positives; 1 SVG unit = 1 image pixel.

    Each layer pairs a color with one strategy's positive rows: a row of four
    numbers (x_min, y_min, x_max, y_max) is outlined as a box, a row of two
    (x, y) is drawn as a dot.
    """
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{image_width}" '
        f'height="{image_height}" viewBox="0 0 {image_width} {image_height}">',
        f'<rect x="0" y="0" width="{image_width}" height="{image_height}" '
        f'fill="{_BACKGROUND}"/>',
    ]
    for color, rows in layers:
        for row in rows:
            parts.append(_rect(*row, color, 1.0) if len(row) == 4 else _dot(*row, color, 2.0))
    for box in gt_boxes:
        parts.append(_rect(*box.as_tuple(), "#ffffff", width=1.5, dash="6 4"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
