"""Self-contained SVG bar charts for run reports. No external renderer."""

from __future__ import annotations

from pathlib import Path

from .harness import RunReport

_PANEL_W = 420
_PANEL_H = 300
_MARGIN = 48
_BAR_GAP = 12
_MIN_BAR_W = 4
# Width of one character at font size 10: a bound on the digits and the
# "S" of a sans-serif face.
_CHAR_W = 6


def _panel(title: str, labels: list[str], values: list[int], x_off: int, panel_w: int) -> list[str]:
    peak = max(values) if max(values, default=0) > 0 else 1
    plot_w = panel_w - 2 * _MARGIN
    plot_h = _PANEL_H - 2 * _MARGIN
    # Up to 21 bars keep the full gap; more shrink the gap, then the bars
    # (324 fit); past that the panel widens so each bar keeps 1 px.
    n = max(1, len(values))
    gap = min(_BAR_GAP, max(0, (plot_w - _MIN_BAR_W * n) // max(1, n - 1)))
    bar_w = max(1, (plot_w - gap * (n - 1)) // n)
    # Label every k-th bar, with k large enough that neighbouring labels clear each other.
    label_w = _CHAR_W * max(len(text) for text in [*labels, *map(str, values)])
    every = -(-label_w // (bar_w + gap))
    parts = [
        f'<text x="{x_off + panel_w // 2}" y="24" text-anchor="middle" '
        f'font-size="14">{title}</text>',
        f'<line x1="{x_off + _MARGIN}" y1="{_PANEL_H - _MARGIN}" '
        f'x2="{x_off + panel_w - _MARGIN}" y2="{_PANEL_H - _MARGIN}" stroke="black"/>',
        f'<line x1="{x_off + _MARGIN}" y1="{_MARGIN}" '
        f'x2="{x_off + _MARGIN}" y2="{_PANEL_H - _MARGIN}" stroke="black"/>',
        f'<text x="{x_off + _MARGIN - 6}" y="{_MARGIN + 4}" text-anchor="end" '
        f'font-size="10">{peak}</text>',
        f'<text x="{x_off + _MARGIN - 6}" y="{_PANEL_H - _MARGIN + 4}" '
        f'text-anchor="end" font-size="10">0</text>',
    ]
    for i, (label, value) in enumerate(zip(labels, values)):
        height = plot_h * value // peak
        x = x_off + _MARGIN + i * (bar_w + gap)
        y = _PANEL_H - _MARGIN - height
        parts.append(
            f'<rect class="bar" x="{x}" y="{y}" width="{bar_w}" height="{height}" '
            f'fill="#4878a8"/>'
        )
        if i % every:
            continue
        parts.append(
            f'<text x="{x + bar_w // 2}" y="{y - 4}" text-anchor="middle" '
            f'font-size="10">{value}</text>'
        )
        parts.append(
            f'<text x="{x + bar_w // 2}" y="{_PANEL_H - _MARGIN + 14}" '
            f'text-anchor="middle" font-size="10">{label}</text>'
        )
    return parts


def emit_chart(report: RunReport, path: str | Path) -> None:
    """Two grouped bar charts: canonical blocks and canonical txs per sealer."""
    labels = [f"S{s.index}" for s in report.per_sealer]
    panels = [
        ("Canonical blocks per sealer", [s.canonical_blocks for s in report.per_sealer]),
        ("Canonical transactions per sealer", [s.canonical_txs for s in report.per_sealer]),
    ]
    # Wider than the fixed width only once 1 px bars no longer fit the plot.
    panel_w = max(_PANEL_W, len(labels) + 2 * _MARGIN)
    width = panel_w * len(panels)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{_PANEL_H}" viewBox="0 0 {width} {_PANEL_H}">',
        f'<rect x="0" y="0" width="{width}" height="{_PANEL_H}" fill="white"/>',
    ]
    for i, (title, values) in enumerate(panels):
        parts.extend(_panel(title, labels, values, i * panel_w, panel_w))
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="ascii")
