"""Writers for metric tables and analysis outputs.

CSV layouts mirror the usual results tables: one row per method, wMAE and
pMAE columns per instrument plus the mean over instruments.  Analysis
writers emit one CSV per analysis.  Plot helpers write the three SVG
figures (scatter, filter curves, box plot) as plain text with numpy only,
so the same input gives the same bytes.
"""

from __future__ import annotations

import csv
import json
from typing import Mapping, Optional, Sequence

import numpy as np

from .analysis import FilterCurve, PccResult, TpFpResult, TriggerResult
from .metrics import MetricsReport


def _cell(value: float) -> str:
    return "" if value is None or (isinstance(value, float) and np.isnan(value)) else f"{value:.6f}"


def write_metrics_table(reports: Mapping[str, MetricsReport], csv_path: str,
                        json_path: Optional[str] = None) -> None:
    """One row per method; per-instrument and mean wMAE/pMAE columns."""
    if not reports:
        raise ValueError("no reports to write")
    names = next(iter(reports.values())).names
    header = ["method", "horizon", *(f"{m}_{name}" for name in names for m in ("wmae", "pmae")),
              "wmae_mean", "pmae_mean", "wmae_instruments", "pmae_instruments"]
    _write_csv(csv_path, header, (
        [method, f"{report.horizon:g}",
         *(_cell(float(v)) for pair in zip(report.wmae, report.pmae) for v in pair),
         _cell(report.mean_wmae), _cell(report.mean_pmae), report.wmae_count, report.pmae_count]
        for method, report in reports.items()))
    if json_path is not None:
        payload = {method: report.to_dict() for method, report in reports.items()}
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")


def _write_csv(path: str, header: Sequence[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_pcc_csv(results: Sequence[PccResult], path: str, names: Sequence[str]) -> None:
    _write_csv(path, ["instrument", "pcc", "count", "reason"],
               ([name, _cell(res.value), res.count, res.reason or ""]
                for name, res in zip(names, results)))


def write_filter_csv(curves: Sequence[FilterCurve], path: str, names: Sequence[str]) -> None:
    _write_csv(path, ["instrument", "percentile", "pmae", "count"],
               ([name, f"{q:g}", _cell(float(v)), int(c)]
                for name, curve in zip(names, curves)
                for q, v, c in zip(curve.percentiles, curve.pmae, curve.counts)))


def write_tpfp_csv(results: Sequence[TpFpResult], path: str, names: Sequence[str]) -> None:
    _write_csv(path, ["instrument", "group", "count", "median_epistemic", "median_aleatoric"],
               ([name, group, stats.count,
                 _cell(stats.median_epistemic), _cell(stats.median_aleatoric)]
                for name, res in zip(names, results)
                for group, stats in (("tp", res.tp), ("fp", res.fp))))


def write_trigger_csv(result: TriggerResult, path: str, names: Sequence[str]) -> None:
    _write_csv(path, ["target", "trigger", "condition", "reg_count", "cls_count",
                      "median_reg_epistemic", "median_cls_epistemic", "median_cls_aleatoric"],
               ([names[result.target], names[result.trigger],
                 "visible" if cond.visible else "hidden",
                 cond.reg_count, cond.cls_count,
                 _cell(cond.median_reg_epistemic),
                 _cell(cond.median_cls_epistemic),
                 _cell(cond.median_cls_aleatoric)]
                for cond in (result.visible, result.hidden)))


# ---------------------------------------------------------------------------
# SVG plots (presentation only; analyses are read from the CSVs)
# ---------------------------------------------------------------------------

_WIDTH, _HEIGHT = 420, 300
_LEFT, _RIGHT, _TOP, _BOTTOM = 64, 404, 28, 248   # plot area, px
_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
           "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _axis(values) -> tuple[tuple[float, float], list[tuple[float, str]]]:
    """Limits and labelled round ticks spanning the finite entries of ``values``.

    Empty or constant data gets a padded range, so a scale never has zero width.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    v = v[np.isfinite(v)]
    lo, hi = (float(v.min()), float(v.max())) if v.size else (0.0, 1.0)
    if hi - lo <= 1e-9 * max(abs(lo), abs(hi)):
        pad = 0.1 * abs(lo) if lo else 0.5
        lo, hi = lo - pad, hi + pad
    raw = (hi - lo) / 4
    step = 10.0 ** np.floor(np.log10(raw))
    step *= next(m for m in (1, 2, 5, 10) if m * step >= raw)
    ticks = np.arange(np.floor(lo / step), np.ceil(hi / step) + 1) * step
    return (float(ticks[0]), float(ticks[-1])), [(float(t), f"{t + 0.0:g}") for t in ticks]


class _Figure:
    """One SVG figure: a framed plot area with linear scales, ticks and titles.

    Elements are formatted text with fixed precision and no ids or dates, so
    the same input always gives the same bytes.
    """

    def __init__(self, xlim, ylim, xticks, yticks, xlabel: str, ylabel: str,
                 title: str = ""):
        self.xlim, self.ylim = xlim, ylim
        mid_x, mid_y = (_LEFT + _RIGHT) / 2, (_TOP + _BOTTOM) / 2
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
            f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="10">',
            f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
            f'<rect x="{_LEFT}" y="{_TOP}" width="{_RIGHT - _LEFT}" '
            f'height="{_BOTTOM - _TOP}" fill="none" stroke="black"/>',
        ]
        for value, label in xticks:
            x = self.x(value)
            self.parts.append(f'<line x1="{x:.2f}" y1="{_BOTTOM}" x2="{x:.2f}" '
                              f'y2="{_BOTTOM + 4}" stroke="black"/>')
            self.text(x, _BOTTOM + 15, label, anchor="middle")
        for value, label in yticks:
            y = self.y(value)
            self.parts.append(f'<line x1="{_LEFT - 4}" y1="{y:.2f}" x2="{_LEFT}" '
                              f'y2="{y:.2f}" stroke="black"/>')
            self.text(_LEFT - 6, y + 3.5, label, anchor="end")
        self.text(mid_x, _BOTTOM + 36, xlabel, anchor="middle", size=11)
        self.parts.append(
            f'<text x="16" y="{mid_y:.2f}" text-anchor="middle" font-size="11" '
            f'transform="rotate(-90 16 {mid_y:.2f})">{_esc(ylabel)}</text>'
        )
        if title:
            self.text(mid_x, 18, title, anchor="middle", size=12)

    def x(self, value: float) -> float:
        lo, hi = self.xlim
        return _LEFT + (value - lo) / (hi - lo) * (_RIGHT - _LEFT)

    def y(self, value: float) -> float:
        lo, hi = self.ylim
        return _BOTTOM - (value - lo) / (hi - lo) * (_BOTTOM - _TOP)

    def text(self, x: float, y: float, text: str, anchor: str = "start", size: int = 10) -> None:
        self.parts.append(f'<text x="{x:.2f}" y="{y:.2f}" text-anchor="{anchor}" '
                          f'font-size="{size}">{_esc(text)}</text>')

    def circle(self, x: float, y: float, r: float, attrs: str) -> None:
        self.parts.append(f'<circle cx="{self.x(x):.2f}" cy="{self.y(y):.2f}" r="{r:g}" {attrs}/>')

    def line(self, x1: float, y1: float, x2: float, y2: float, attrs: str) -> None:
        self.parts.append(f'<line x1="{self.x(x1):.2f}" y1="{self.y(y1):.2f}" '
                          f'x2="{self.x(x2):.2f}" y2="{self.y(y2):.2f}" {attrs}/>')

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write('<?xml version="1.0" encoding="UTF-8"?>\n')
            fh.write("\n".join(self.parts + ["</svg>"]) + "\n")


def plot_error_uncertainty(errors: np.ndarray, variances: np.ndarray, path: str,
                           title: str = "") -> None:
    """Scatter of |error| against epistemic variance with its least-squares line.

    The line is drawn when there are at least two points and the variances
    are not constant.  Non-finite pairs are left out.
    """
    errors = np.asarray(errors, dtype=np.float64)
    variances = np.asarray(variances, dtype=np.float64)
    keep = np.isfinite(errors) & np.isfinite(variances)
    errors, variances = errors[keep], variances[keep]
    fit = None
    if errors.size >= 2 and np.ptp(variances) > 0:
        slope, intercept = np.polyfit(variances, errors, 1)
        xs = np.array([variances.min(), variances.max()])
        fit = (xs, slope * xs + intercept)
    xlim, xticks = _axis(variances)
    ylim, yticks = _axis(errors if fit is None else np.concatenate([errors, fit[1]]))
    fig = _Figure(xlim, ylim, xticks, yticks, "epistemic variance (min\u00b2)",
                  "|error| (min)", title)
    for v, e in zip(variances, errors):
        fig.circle(v, e, 2, f'fill="{_COLORS[0]}" fill-opacity="0.4" class="point"')
    if fit is not None:
        (x1, x2), (y1, y2) = fit
        fig.line(x1, y1, x2, y2, 'stroke="black" stroke-width="1" class="fit"')
    fig.write(path)


def plot_filter_curves(curves: Sequence[FilterCurve], path: str,
                       names: Optional[Sequence[str]] = None) -> None:
    """pMAE against the retained percentile, one line per instrument.

    Percentiles where nothing is retained (NaN pMAE) break the line; a
    curve with no finite point shows only in the legend.
    """
    xlim, xticks = _axis([q for c in curves for q in c.percentiles])
    ylim, yticks = _axis([v for c in curves for v in c.pmae])
    fig = _Figure(xlim, ylim, xticks, yticks, "retained percentile (least uncertain)",
                  "pMAE (min)")
    for j, curve in enumerate(curves):
        color = _COLORS[j % len(_COLORS)]
        finite = np.flatnonzero(np.isfinite(curve.pmae))
        for run in np.split(finite, np.flatnonzero(np.diff(finite) > 1) + 1):
            if run.size > 1:
                points = " ".join(f"{fig.x(curve.percentiles[i]):.2f},{fig.y(curve.pmae[i]):.2f}"
                                  for i in run)
                fig.parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                                 f'stroke-width="1.5" class="curve"/>')
        for i in finite:
            fig.circle(curve.percentiles[i], curve.pmae[i], 2.5, f'fill="{color}" class="point"')
        y = _TOP + 14 + 14 * j
        fig.parts.append(f'<line x1="{_RIGHT - 96}" y1="{y - 3.5}" x2="{_RIGHT - 76}" '
                         f'y2="{y - 3.5}" stroke="{color}" stroke-width="1.5"/>')
        fig.text(_RIGHT - 70, y, names[j] if names else f"inst_{j}", size=9)
    if not any(np.isfinite(c.pmae).any() for c in curves):
        fig.text((_LEFT + _RIGHT) / 2, (_TOP + _BOTTOM) / 2, "no retained predictions",
                 anchor="middle")
    fig.write(path)


def plot_trigger_box(result: TriggerResult, path: str) -> None:
    """Box plot of the class aleatoric variance with the trigger visible and not visible.

    Boxes span the quartiles around the median; whiskers reach the most
    extreme values within 1.5 IQR, and values beyond them are drawn as
    points.  An empty group is labelled "no data" instead of a box.
    """
    groups = []
    for condition in (result.visible, result.hidden):
        values = np.asarray(condition.cls_aleatoric, dtype=np.float64)
        groups.append(values[np.isfinite(values)])
    ylim, yticks = _axis(np.concatenate(groups))
    xticks = [(1.0, f"trigger visible (n={groups[0].size})"),
              (2.0, f"not visible (n={groups[1].size})")]
    fig = _Figure((0.5, 2.5), ylim, xticks, yticks,
                  f"trigger instrument {result.trigger}, target {result.target}",
                  "cls aleatoric")
    for pos, values in zip((1.0, 2.0), groups):
        if not values.size:
            fig.text(fig.x(pos), (_TOP + _BOTTOM) / 2, "no data", anchor="middle")
            continue
        q1, med, q3 = np.percentile(values, [25, 50, 75])
        iqr = q3 - q1
        inside = values[(values >= q1 - 1.5 * iqr) & (values <= q3 + 1.5 * iqr)]
        low, high = inside.min(), inside.max()
        x0, x1 = fig.x(pos - 0.2), fig.x(pos + 0.2)
        fig.parts.append(f'<rect x="{x0:.2f}" y="{fig.y(q3):.2f}" width="{x1 - x0:.2f}" '
                         f'height="{fig.y(q1) - fig.y(q3):.2f}" fill="{_COLORS[0]}" '
                         f'fill-opacity="0.3" stroke="black" class="box"/>')
        fig.line(pos - 0.2, med, pos + 0.2, med, f'stroke="{_COLORS[1]}" stroke-width="2" '
                                                 f'class="median"')
        for end, cap in ((q1, low), (q3, high)):
            fig.line(pos, end, pos, cap, 'stroke="black" class="whisker"')
            fig.line(pos - 0.1, cap, pos + 0.1, cap, 'stroke="black" class="whisker"')
        for v in values[(values < low) | (values > high)]:
            fig.circle(pos, v, 2.5, 'fill="none" stroke="black" class="outlier"')
    fig.write(path)
