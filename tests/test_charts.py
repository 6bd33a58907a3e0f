"""SVG attribution charts: ranking, geometry, colors, determinism."""

from __future__ import annotations

import numpy as np

from xmpc.charts import attribution_chart_svg, ranking_order
from xmpc.shapley import Attribution


def make_attr(phis, values=None, names=None):
    phis = np.asarray(phis, dtype=float)
    n = phis.size
    if values is None:
        values = np.arange(n, dtype=float) + 1.0
    if names is None:
        names = tuple(f"f{i}" for i in range(n))
    base = 10.0
    return Attribution(
        feature_names=tuple(names),
        feature_values=np.asarray(values, dtype=float),
        shapley_values=phis,
        base_value=base,
        prediction=base + float(phis.sum()),
    )


class TestRankingOrder:
    def test_sorted_by_magnitude(self):
        attr = make_attr([1.0, -5.0, 3.0, 0.5])
        assert ranking_order(attr) == [1, 2, 0, 3]

    def test_ties_fall_back_to_schema_order(self):
        attr = make_attr([2.0, -2.0, 2.0])
        assert ranking_order(attr) == [0, 1, 2]


class TestChartSvg:
    def test_document_shape(self):
        attr = make_attr([4.0, -2.0, 1.0])
        svg = attribution_chart_svg(attr, "hour 3")
        assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
        assert svg.endswith("</svg>\n")
        # background + one bar per feature
        assert svg.count("<rect") == 1 + 3
        assert svg.count("<text") == 1 + 2 * 3 + 1  # title, name+phi per row, footer

    def test_colors_by_sign(self):
        svg = attribution_chart_svg(make_attr([4.0, -2.0]), "t")
        assert svg.count('fill="#d62728"') == 1  # positive bar
        assert svg.count('fill="#1f77b4"') == 1  # negative bar

    def test_positive_bar_starts_at_axis_negative_ends_there(self):
        attr = make_attr([240.0, -120.0])
        svg = attribution_chart_svg(attr, "t")
        # max |phi| spans the full 240 px; negative half-width bar ends at x=330
        assert '<rect x="330.00" y="48" width="240.00"' in svg
        assert '<rect x="210.00" y="76" width="120.00"' in svg

    def test_rows_ranked_largest_first(self):
        attr = make_attr([1.0, -9.0, 4.0], names=("alpha", "beta", "gamma"))
        svg = attribution_chart_svg(attr, "t")
        assert svg.index("beta = ") < svg.index("gamma = ") < svg.index("alpha = ")

    def test_labels_and_footer_formatting(self):
        attr = make_attr([680.369781, -113.826475], values=[32.7, 25.0],
                         names=("oa_temp", "zone_clg_tstat"))
        svg = attribution_chart_svg(attr, "t")
        assert "oa_temp = 32.7</text>" in svg
        assert "zone_clg_tstat = 25.0</text>" in svg
        assert ">+680.37</text>" in svg
        assert ">-113.83</text>" in svg
        footer = f"expected value = 10.00, prediction = {attr.prediction:.2f}"
        assert footer in svg

    def test_title_escaped(self):
        svg = attribution_chart_svg(make_attr([1.0]), "P(t+1) < 2 & cheap")
        assert "P(t+1) &lt; 2 &amp; cheap" in svg
        assert "< 2 &" not in svg

    def test_all_zero_attribution_does_not_divide_by_zero(self):
        svg = attribution_chart_svg(make_attr([0.0, 0.0]), "quiet hour")
        assert svg.count('width="0.00"') == 2

    def test_byte_deterministic(self):
        attr = make_attr([3.3, -1.1, 0.0, 2.2])
        a = attribution_chart_svg(attr, "same title")
        b = attribution_chart_svg(attr, "same title")
        assert a == b
