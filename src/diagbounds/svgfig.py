"""Minimal SVG emitters for the standard report figures.

Static files only: segment/scatter plots of estimated and confidence sets
in the (theta1, theta0) plane, and bound-width curves.  The plot window
of a set figure is the bounding box of the drawn content padded by 10%.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SvgCanvas", "identified_set_figure", "width_curve_figure"]

_W, _H, _MARGIN = 640, 480, 56


def _escape(text: str) -> str:
    """``text`` as XML character data (a title carries the input file's name)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


@dataclass
class SvgCanvas:
    """Maps data coordinates to a fixed-size SVG viewport."""

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float
    x_label: str = ""
    y_label: str = ""
    title: str = ""

    def __post_init__(self) -> None:
        if self.x_hi <= self.x_lo:
            self.x_hi = self.x_lo + 1.0
        if self.y_hi <= self.y_lo:
            self.y_hi = self.y_lo + 1.0
        self._parts: list[str] = []

    def _x(self, x: float) -> float:
        return _MARGIN + (x - self.x_lo) / (self.x_hi - self.x_lo) * (_W - 2 * _MARGIN)

    def _y(self, y: float) -> float:
        return _H - _MARGIN - (y - self.y_lo) / (self.y_hi - self.y_lo) * (_H - 2 * _MARGIN)

    def _xy(self, xs, ys) -> list[tuple[float, float]]:
        """(``_x``, ``_y``) of whole arrays, element by element.

        Overflow gives inf silently, as the same arithmetic on one float does.
        """
        with np.errstate(over="ignore"):
            cx = self._x(np.asarray(xs, dtype=float)).tolist()
            cy = self._y(np.asarray(ys, dtype=float)).tolist()
        return list(zip(cx, cy))

    def lines(self, ends, color="black", width=1.5):
        """One line per row (x1, y1, x2, y2) of the (n, 4) array ``ends``."""
        tag = f'<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="{color}" stroke-width="{width}"/>'
        starts, stops = self._xy(ends[:, 0], ends[:, 1]), self._xy(ends[:, 2], ends[:, 3])
        self._parts += [tag % (*a, *b) for a, b in zip(starts, stops)]

    def circles(self, xs, ys, r, color):
        """One circle per (x, y)."""
        tag = f'<circle cx="%.2f" cy="%.2f" r="{r}" fill="{color}"/>'
        self._parts += [tag % xy for xy in self._xy(xs, ys)]

    def rect(self, x_lo, y_lo, x_hi, y_hi, stroke="gray", dash="4 3"):
        self._parts.append(
            f'<rect x="{self._x(x_lo):.2f}" y="{self._y(y_hi):.2f}" '
            f'width="{self._x(x_hi) - self._x(x_lo):.2f}" '
            f'height="{self._y(y_lo) - self._y(y_hi):.2f}" '
            f'fill="none" stroke="{stroke}" stroke-dasharray="{dash}"/>'
        )

    def polyline(self, pts, color="black", width=1.5):
        coords = " ".join(f"{self._x(x):.2f},{self._y(y):.2f}" for x, y in pts)
        self._parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="{width}"/>'
        )

    def render(self) -> str:
        frame = (
            f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_W - 2 * _MARGIN}" '
            f'height="{_H - 2 * _MARGIN}" fill="none" stroke="black" stroke-width="1"/>'
        )
        labels = []
        if self.title:
            labels.append(
                f'<text x="{_W / 2}" y="28" text-anchor="middle" font-size="15">{_escape(self.title)}</text>'
            )
        if self.x_label:
            labels.append(
                f'<text x="{_W / 2}" y="{_H - 14}" text-anchor="middle" font-size="13">{_escape(self.x_label)}</text>'
            )
        if self.y_label:
            labels.append(
                f'<text x="16" y="{_H / 2}" text-anchor="middle" font-size="13" '
                f'transform="rotate(-90 16 {_H / 2})">{_escape(self.y_label)}</text>'
            )
        for frac in (0.0, 0.5, 1.0):
            xv = self.x_lo + frac * (self.x_hi - self.x_lo)
            yv = self.y_lo + frac * (self.y_hi - self.y_lo)
            labels.append(
                f'<text x="{self._x(xv):.1f}" y="{_H - _MARGIN + 18}" text-anchor="middle" '
                f'font-size="11">{xv:.3g}</text>'
            )
            labels.append(
                f'<text x="{_MARGIN - 6}" y="{self._y(yv):.1f}" text-anchor="end" '
                f'font-size="11">{yv:.3g}</text>'
            )
        body = "\n".join([frame, *labels, *self._parts])
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}">\n<rect width="100%" height="100%" fill="white"/>\n'
            f"{body}\n</svg>\n"
        )


def _padded_box(xs, ys):
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    dx = (x_hi - x_lo) or 0.05
    dy = (y_hi - y_lo) or 0.05
    return (
        max(0.0, x_lo - 0.10 * dx),
        min(1.0, x_hi + 0.10 * dx),
        max(0.0, y_lo - 0.10 * dy),
        min(1.0, y_hi + 0.10 * dy),
    )


def identified_set_figure(
    segments,
    apparent=None,
    apparent_box=None,
    scatter=None,
    comparator_box=None,
    title="",
) -> str:
    """Segments plus optional apparent point/CI box, scatter and comparator box."""
    ends = np.array([(*seg.lo, *seg.hi) for seg in segments], dtype=float).reshape(-1, 4)
    xs, ys = ends[:, 0::2].ravel().tolist(), ends[:, 1::2].ravel().tolist()
    if apparent is not None:
        xs.append(apparent[0])
        ys.append(apparent[1])
    if apparent_box is not None:
        xs += [apparent_box[0], apparent_box[1]]
        ys += [apparent_box[2], apparent_box[3]]
    if scatter is not None and len(scatter):
        # NaN-skipping, as min and max were over a list that starts with the segments.
        scatter = np.asarray(scatter, dtype=float)
        xs += [float(np.fmin.reduce(scatter[:, 0])), float(np.fmax.reduce(scatter[:, 0]))]
        ys += [float(np.fmin.reduce(scatter[:, 1])), float(np.fmax.reduce(scatter[:, 1]))]
    if comparator_box is not None:
        xs += [comparator_box[0], comparator_box[1]]
        ys += [comparator_box[2], comparator_box[3]]
    canvas = SvgCanvas(*_padded_box(xs, ys), x_label="sensitivity", y_label="specificity", title=title)
    if scatter is not None and len(scatter):
        thinned = scatter[:: max(1, len(scatter) // 3000)]
        canvas.circles(thinned[:, 0], thinned[:, 1], r=1.2, color="#9ecae1")
    if comparator_box is not None:
        canvas.rect(*comparator_box)
    canvas.lines(ends, color="#d62728", width=2.5)
    if apparent_box is not None:
        canvas.rect(*apparent_box, stroke="#2ca02c", dash="2 2")
    if apparent is not None:
        canvas.circles([apparent[0]], [apparent[1]], r=4.0, color="#d62728")
    return canvas.render()


def width_curve_figure(qs, sharp_widths, rect_widths, title="") -> str:
    """Prevalence bound width against the screened positive rate."""
    canvas = SvgCanvas(
        0.0,
        1.0,
        0.0,
        max(1e-9, max(max(sharp_widths), max(rect_widths))) * 1.1,
        x_label="screened positive rate",
        y_label="prevalence bound width",
        title=title,
    )
    canvas.polyline(list(zip(qs, rect_widths)), color="#7f7f7f", width=1.5)
    canvas.polyline(list(zip(qs, sharp_widths)), color="#d62728", width=2.0)
    return canvas.render()
