import xml.etree.ElementTree as ET

import pytest

from trustsim.chart import SVG_NS, render_chart, write_chart
from trustsim.engine import MetricsRow, MetricsSeries, SchemaError


def series_with(newcomers: bool) -> MetricsSeries:
    rows = []
    for cycle in range(20):
        rows.append(
            MetricsRow(
                cycle=cycle,
                avg_trust_good=cycle * 0.5,
                avg_trust_bad=cycle * 0.2,
                avg_trust_liar=cycle * 0.1,
                avg_trust_newcomer_good=(cycle * 0.4 if newcomers and cycle >= 10 else None),
                success_rate=0.9,
                penalties=1,
            )
        )
    return MetricsSeries(rows)


def polylines(svg: str):
    root = ET.fromstring(svg)
    return root.findall(f".//{{{SVG_NS}}}polyline")


def legend_texts(svg: str):
    root = ET.fromstring(svg)
    legends = [g for g in root.findall(f".//{{{SVG_NS}}}g") if g.get("class") == "legend"]
    assert len(legends) == 1
    return [t.text for t in legends[0].findall(f"{{{SVG_NS}}}text")]


def test_four_category_chart_has_four_series_and_legend():
    svg = render_chart(series_with(newcomers=True))
    lines = polylines(svg)
    assert len(lines) == 4
    assert {line.get("data-name") for line in lines} == {
        "good", "bad", "liar", "newcomer_good",
    }
    assert legend_texts(svg) == ["good", "bad", "liar", "newcomer_good"]


def test_empty_newcomer_column_drops_series():
    svg = render_chart(series_with(newcomers=False))
    assert len(polylines(svg)) == 3
    assert legend_texts(svg) == ["good", "bad", "liar"]


def test_axis_labels_present():
    svg = render_chart(series_with(newcomers=True))
    root = ET.fromstring(svg)
    texts = [t.text for t in root.findall(f".//{{{SVG_NS}}}text")]
    assert "cycle" in texts
    assert "average trust" in texts


def test_newcomer_series_starts_at_injection():
    svg = render_chart(series_with(newcomers=True))
    line = next(l for l in polylines(svg) if l.get("data-name") == "newcomer_good")
    assert len(line.get("points").split()) == 10  # cycles 10..19 only


def series_of(values) -> MetricsSeries:
    """``values`` as the good-founder averages, one cycle each."""
    return MetricsSeries([
        MetricsRow(cycle, value, None, None, None, None, 0) for cycle, value in enumerate(values)
    ])


@pytest.mark.parametrize("values", [
    [-19.5, -19.0, -18.7],  # a negative floor: every average below 0
    [-4.0, 0.0, 3.5, 10.0],  # both signs
    [-3.0, -3.0],  # one value
    [0.0, 1.0, 6.0],
], ids=["negative", "both-signs", "flat", "non-negative"])
def test_every_point_lies_inside_the_plot_area(values):
    root = ET.fromstring(render_chart(series_of(values)))
    axes = next(g for g in root.iter(f"{{{SVG_NS}}}g") if g.get("class") == "axes")
    y_axis, x_axis = axes.findall(f"{{{SVG_NS}}}line")
    left, right = float(x_axis.get("x1")), float(x_axis.get("x2"))
    top, bottom = float(y_axis.get("y1")), float(y_axis.get("y2"))
    for line in polylines(ET.tostring(root, encoding="unicode")):
        for point in line.get("points").split():
            x, y = map(float, point.split(","))
            assert left <= x <= right and top <= y <= bottom, point


def test_write_chart_round_trip(tmp_path):
    csv_path = tmp_path / "metrics.csv"
    svg_path = tmp_path / "chart.svg"
    csv_path.write_text(series_with(newcomers=True).to_csv())
    write_chart(csv_path, svg_path)
    assert len(polylines(svg_path.read_text())) == 4


def test_write_chart_rejects_malformed_header(tmp_path):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text("cycle,oops\n0,1\n")
    with pytest.raises(SchemaError):
        write_chart(csv_path, tmp_path / "chart.svg")


def test_chart_rejects_empty_series():
    with pytest.raises(ValueError):
        render_chart(MetricsSeries([]))
