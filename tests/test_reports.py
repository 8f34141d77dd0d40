from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from anticipation import reports
from anticipation.analysis import FilterCurve, TriggerCondition, TriggerResult

SVG = "{http://www.w3.org/2000/svg}"


def parse_svg(path):
    root = ElementTree.parse(path).getroot()
    assert root.tag == SVG + "svg"
    for element in root.iter():
        for value in element.attrib.values():
            assert "nan" not in value.lower() and "inf" not in value.lower(), value
    return root


def tagged(root, tag, cls):
    return root.findall(f".//{SVG}{tag}[@class='{cls}']")


def curve(pmae):
    pmae = np.asarray(pmae, dtype=np.float64)
    grid = np.linspace(100.0 / pmae.size, 100.0, pmae.size)
    return FilterCurve(percentiles=grid, pmae=pmae, counts=np.isfinite(pmae).astype(np.int64))


def trigger(visible, hidden):
    def condition(flag, values):
        values = np.asarray(values, dtype=np.float64)
        return TriggerCondition(visible=flag, reg_count=0, cls_count=values.size,
                                median_reg_epistemic=np.nan, median_cls_epistemic=np.nan,
                                median_cls_aleatoric=np.nan, cls_aleatoric=values)
    return TriggerResult(target=1, trigger=0, visible=condition(True, visible),
                         hidden=condition(False, hidden))


rng = np.random.default_rng(0)
VARIANCES = rng.uniform(0.0, 0.5, 40)
ERRORS = 2.0 * VARIANCES + rng.uniform(0.0, 0.3, 40)

# name -> (writer call, class -> expected element count)
CASES = {
    "scatter": (lambda p: reports.plot_error_uncertainty(ERRORS, VARIANCES, p, title="a&b"),
                {("circle", "point"): 40, ("line", "fit"): 1}),
    "scatter_constant_variance": (
        lambda p: reports.plot_error_uncertainty(np.array([0.5, 1.0, 2.0]), np.full(3, 0.25), p),
        {("circle", "point"): 3, ("line", "fit"): 0}),
    "scatter_single_point": (
        lambda p: reports.plot_error_uncertainty(np.array([1.5]), np.array([0.1]), p),
        {("circle", "point"): 1, ("line", "fit"): 0}),
    "filter": (lambda p: reports.plot_filter_curves([curve([3.0, 2.0, 1.0]), curve([1.0, 1.5, 2.0])],
                                                    p, ["probe", "lifter"]),
               {("polyline", "curve"): 2, ("circle", "point"): 6}),
    "filter_gap": (lambda p: reports.plot_filter_curves([curve([np.nan, 2.0, np.nan, 1.0, 0.5])], p),
                   {("polyline", "curve"): 1, ("circle", "point"): 3}),
    "filter_all_nan": (lambda p: reports.plot_filter_curves([curve([np.nan, np.nan])] * 2, p),
                       {("polyline", "curve"): 0, ("circle", "point"): 0}),
    "trigger": (lambda p: reports.plot_trigger_box(trigger([1.0, 2.0, 3.0, 4.0, 100.0],
                                                           [0.5, 0.6, 0.7]), p),
                {("rect", "box"): 2, ("line", "median"): 2, ("circle", "outlier"): 1}),
    "trigger_empty_group": (lambda p: reports.plot_trigger_box(trigger([0.2, 0.4, 0.3], []), p),
                            {("rect", "box"): 1, ("line", "median"): 1}),
    "trigger_both_empty": (lambda p: reports.plot_trigger_box(trigger([], []), p),
                           {("rect", "box"): 0}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_plot_is_deterministic_svg(case, tmp_path):
    write, expected = CASES[case]
    paths = [str(tmp_path / f"{i}.svg") for i in range(2)]
    for path in paths:
        write(path)
    assert Path(paths[0]).read_bytes() == Path(paths[1]).read_bytes()
    root = parse_svg(paths[0])
    for (tag, cls), count in expected.items():
        assert len(tagged(root, tag, cls)) == count, (tag, cls)


def test_filter_all_nan_is_an_empty_plot(tmp_path):
    path = str(tmp_path / "f.svg")
    reports.plot_filter_curves([curve([np.nan, np.nan])], path, ["probe"])
    texts = [t.text for t in parse_svg(path).iter(SVG + "text")]
    assert "no retained predictions" in texts and "probe" in texts


def test_trigger_box_marks_quartiles_and_whiskers(tmp_path):
    path = str(tmp_path / "t.svg")
    reports.plot_trigger_box(trigger([1.0, 2.0, 3.0, 4.0, 100.0], []), path)
    root = parse_svg(path)
    box = tagged(root, "rect", "box")[0]
    median = tagged(root, "line", "median")[0]
    top, bottom = float(box.get("y")), float(box.get("y")) + float(box.get("height"))
    assert top < float(median.get("y1")) < bottom  # median 3 between quartiles 2 and 4
    caps = sorted(float(w.get("y1")) for w in tagged(root, "line", "whisker")
                  if w.get("x1") != w.get("x2"))
    # whiskers end at 1 and 4 (100 lies beyond 1.5 IQR), so the upper cap sits on the box edge
    assert caps[0] == pytest.approx(top) and caps[1] > bottom
