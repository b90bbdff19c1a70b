"""Tests for deterministic SVG chart emission."""

import numpy as np
import pytest

from tunnelplan import svgplot


class TestNumberFormat:
    def test_fixed_precision_and_stripping(self):
        # two decimals, trailing zeros and dot removed
        assert svgplot.fmt(1.2345) == "1.23"
        assert svgplot.fmt(2.0) == "2"
        assert svgplot.fmt(2.50) == "2.5"
        assert svgplot.fmt(-3.126) == "-3.13"

    def test_negative_zero_normalized(self):
        assert svgplot.fmt(-0.001) == "0"
        assert svgplot.fmt(-0.0) == "0"

    def test_label_uses_significant_digits(self):
        assert svgplot.label_fmt(0.30000000000000004) == "0.3"
        assert svgplot.label_fmt(153907765.0) == "1.539e+08"
        assert svgplot.label_fmt(25.0) == "25"


class TestTicks:
    def test_unit_span(self):
        assert svgplot.nice_ticks(0.0, 10.0, 5) == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]

    def test_fractional_span(self):
        # raw step 0.074 rounds up the 1-2-5 ladder to 0.1
        assert svgplot.nice_ticks(0.0, 0.37, 5) == [0.0, 0.1, 0.2, 0.3]

    def test_negative_lo(self):
        assert svgplot.nice_ticks(-1.2, 3.4, 5) == [-1.0, 0.0, 1.0, 2.0, 3.0]

    def test_degenerate_span(self):
        assert svgplot.nice_ticks(4.0, 4.0, 5) == [4.0]


class TestDataView:
    def test_corner_and_center_mapping(self):
        view = svgplot.DataView(50.0, 20.0, 400.0, 300.0, 0.0, 10.0, 0.0, 5.0)
        # y axis is flipped: data ymin sits at the bottom of the pixel box
        assert view.to_px(0.0, 0.0) == (50.0, 320.0)
        assert view.to_px(10.0, 5.0) == (450.0, 20.0)
        assert view.to_px(5.0, 2.5) == (250.0, 170.0)

    def test_zero_span_padded_to_center(self):
        view = svgplot.DataView(0.0, 0.0, 100.0, 100.0, 0.0, 1.0, 7.0, 7.0)
        px, py = view.to_px(0.5, 7.0)
        assert px == 50.0
        assert py == 50.0


class TestCanvas:
    def test_minimal_document(self):
        c = svgplot.Canvas(10.0, 5.0)
        c.rect(0.0, 0.0, 10.0, 5.0, fill="#ffffff")
        expected = (
            '<svg xmlns="http://www.w3.org/2000/svg" width="10" height="5" '
            'viewBox="0 0 10 5">\n'
            '<rect x="0" y="0" width="10" height="5" fill="#ffffff"/>\n'
            "</svg>\n"
        )
        assert c.render() == expected

    def test_text_is_escaped(self):
        c = svgplot.Canvas(100.0, 50.0)
        c.text(1.0, 2.0, "a<b & c")
        out = c.render()
        assert "a&lt;b &amp; c" in out
        assert "a<b" not in out
        # text content needs no quote escapes, so quotes stay as written
        c = svgplot.Canvas(100.0, 50.0)
        c.text(1.0, 2.0, "x&<>\"'y")
        assert ">x&amp;&lt;&gt;\"'y</text>" in c.render()

    def test_polyline_points(self):
        c = svgplot.Canvas(100.0, 50.0)
        c.polyline([(0.0, 0.0), (10.0, 20.5), (30.0, 40.0)], stroke="#000000")
        assert 'points="0,0 10,20.5 30,40"' in c.render()


class TestCharts:
    def test_bar_chart_structure(self):
        values = [5.0, 2.0, 9.0, 7.0]
        out = svgplot.bar_chart(
            values,
            title="totals",
            ylabel="pec",
            highlights={1: ("#2ca02c", "min"), 2: ("#d62728", "max")},
        )
        assert out.startswith("<svg")
        assert out.count("#2ca02c") >= 1
        assert out.count("#d62728") >= 1
        # one bar per value: count bar rects by their shared class-free fill
        assert out.count("<rect") >= len(values)
        assert "totals" in out and "pec" in out

    def test_bar_chart_deterministic(self):
        values = list(np.linspace(1.0, 3.0, 17))
        a = svgplot.bar_chart(values, title="t", ylabel="y", highlights={})
        b = svgplot.bar_chart(values, title="t", ylabel="y", highlights={})
        assert a == b

    def test_line_chart_series(self):
        xs = np.linspace(0.0, 4.0, 9)
        out = svgplot.line_chart(
            [("run a", xs, xs**2, "#4878a8"), ("run b", xs, 2 * xs, "#b24040")],
            title="pec over time",
            xlabel="t",
            ylabel="pec",
        )
        assert out.count("<polyline") >= 2
        assert "run a" in out and "run b" in out

    def test_line_chart_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            svgplot.line_chart(
                [("bad", np.arange(3.0), np.arange(4.0), "#000000")],
                title="t",
                xlabel="x",
                ylabel="y",
            )

    def test_scene_plot_boxes_and_paths(self):
        pts = np.array([[0.0, 0.0, -1.0], [5.0, 1.0, -1.0], [9.0, -2.0, -1.0]])
        out = svgplot.scene_plot(
            bounds_min=np.array([-1.0, -5.0, -8.0]),
            bounds_max=np.array([11.0, 5.0, 0.0]),
            boxes=[(np.array([2.0, -1.0, -8.0]), np.array([3.0, 1.0, 0.0]))],
            paths=[("route", pts, "#4878a8", 1.5, None)],
            markers=[(np.array([0.0, 0.0, -1.0]), "#222222", "start")],
            title="top view",
        )
        assert out.count("<polyline") >= 1
        assert out.count("<circle") >= 1
        assert "top view" in out and "start" in out

    def test_scene_plot_deterministic(self):
        pts = np.array([[0.0, 0.0, -1.0], [5.0, 1.0, -1.0]])
        kwargs = dict(
            bounds_min=np.array([-1.0, -5.0, -8.0]),
            bounds_max=np.array([11.0, 5.0, 0.0]),
            boxes=[],
            paths=[("p", pts, "#4878a8", 1.0, 0.6)],
            markers=[],
            title="t",
        )
        assert svgplot.scene_plot(**kwargs) == svgplot.scene_plot(**kwargs)

    def test_thin_keeps_endpoints(self):
        arr = np.arange(30.0).reshape(10, 3)
        out = svgplot.thin(arr, 4)
        assert out.shape[1] == 3
        assert out.shape[0] <= 5
        assert np.array_equal(out[0], arr[0])
        assert np.array_equal(out[-1], arr[-1])
        # short arrays pass through untouched
        assert np.array_equal(svgplot.thin(arr, 100), arr)
