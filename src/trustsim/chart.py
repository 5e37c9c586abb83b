"""Self-contained SVG line charts for metric series (no plotting deps)."""

from __future__ import annotations

from .engine import MetricsSeries

SVG_NS = "http://www.w3.org/2000/svg"

_SERIES = (
    ("good", "avg_trust_good", "#2e7d32"),
    ("bad", "avg_trust_bad", "#c62828"),
    ("liar", "avg_trust_liar", "#6a1b9a"),
    ("newcomer_good", "avg_trust_newcomer_good", "#1565c0"),
)

_WIDTH, _HEIGHT = 840, 520
_MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM = 70, 160, 30, 55


def render_chart(series: MetricsSeries) -> str:
    """Render one polyline per category present, with axes and a legend."""
    if not series.rows:
        raise ValueError("no data rows to plot")
    present = []
    for label, field, color in _SERIES:
        points = [
            (row.cycle, value)
            for row in series.rows
            if (value := getattr(row, field)) is not None
        ]
        if points:
            present.append((label, color, points))
    if not present:
        raise ValueError("no category series present")

    x_min = min(row.cycle for row in series.rows)
    x_max = max(row.cycle for row in series.rows)
    values = [value for _, _, pts in present for _, value in pts]
    # Trust can fall below 0 when the floor is negative.
    y_min, y_max = min(0, min(values)), max(values)
    x_span = max(x_max - x_min, 1)
    y_span = max(y_max - y_min, 1e-9)

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(x: float) -> float:
        return _MARGIN_LEFT + (x - x_min) / x_span * plot_w

    def sy(y: float) -> float:
        return _MARGIN_TOP + plot_h - (y - y_min) / y_span * plot_h

    parts = [
        f'<svg xmlns="{SVG_NS}" viewBox="0 0 {_WIDTH} {_HEIGHT}" '
        f'font-family="sans-serif" font-size="13">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_MARGIN_LEFT}" y="18" font-size="15">average trust by category</text>',
    ]

    axis_y = _MARGIN_TOP + plot_h
    parts.append(
        f'<g class="axes" stroke="#444">'
        f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP}" x2="{_MARGIN_LEFT}" y2="{axis_y}"/>'
        f'<line x1="{_MARGIN_LEFT}" y1="{axis_y}" x2="{_MARGIN_LEFT + plot_w}" y2="{axis_y}"/>'
        f"</g>"
    )
    for i in range(6):
        xv = x_min + x_span * i / 5
        yv = y_min + y_span * i / 5
        parts.append(
            f'<text x="{sx(xv):.1f}" y="{axis_y + 18}" text-anchor="middle">{xv:g}</text>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{sy(yv) + 4:.1f}" text-anchor="end">{yv:g}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" y="{_HEIGHT - 12}" '
        f'text-anchor="middle">cycle</text>'
    )
    parts.append(
        f'<text x="16" y="{_MARGIN_TOP + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_MARGIN_TOP + plot_h / 2:.1f})">average trust</text>'
    )

    for label, color, points in present:
        coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in points)
        parts.append(
            f'<polyline class="series" data-name="{label}" fill="none" '
            f'stroke="{color}" stroke-width="1.6" points="{coords}"/>'
        )

    legend_x = _MARGIN_LEFT + plot_w + 18
    parts.append('<g class="legend">')
    for i, (label, color, _) in enumerate(present):
        y = _MARGIN_TOP + 14 + i * 22
        parts.append(f'<rect x="{legend_x}" y="{y - 10}" width="14" height="14" fill="{color}"/>')
        parts.append(f'<text x="{legend_x + 20}" y="{y + 2}">{label}</text>')
    parts.append("</g>")

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_chart(csv_path, svg_path) -> None:
    """Read a metrics CSV and write the chart; schema errors propagate."""
    series = MetricsSeries.from_csv(csv_path)
    svg = render_chart(series)
    with open(svg_path, "w") as fh:
        fh.write(svg)
