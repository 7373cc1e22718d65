"""Minimal SVG emitters for the standard report figures.

Static files only: segment/scatter plots of estimated and confidence sets
in the (theta1, theta0) plane, and bound-width curves.  The plot window
defaults to the bounding box of the drawn content padded by 10%.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def line(self, x1, y1, x2, y2, color="black", width=1.5, dash=""):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self._parts.append(
            f'<line x1="{self._x(x1):.2f}" y1="{self._y(y1):.2f}" '
            f'x2="{self._x(x2):.2f}" y2="{self._y(y2):.2f}" '
            f'stroke="{color}" stroke-width="{width}"{d}/>'
        )

    def circle(self, x, y, r=3.0, color="red"):
        self._parts.append(
            f'<circle cx="{self._x(x):.2f}" cy="{self._y(y):.2f}" r="{r}" fill="{color}"/>'
        )

    def rect(self, x_lo, y_lo, x_hi, y_hi, color="none", stroke="gray", dash="4 3"):
        self._parts.append(
            f'<rect x="{self._x(x_lo):.2f}" y="{self._y(y_hi):.2f}" '
            f'width="{self._x(x_hi) - self._x(x_lo):.2f}" '
            f'height="{self._y(y_lo) - self._y(y_hi):.2f}" '
            f'fill="{color}" stroke="{stroke}" stroke-dasharray="{dash}"/>'
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


def _padded_box(xs, ys, pad=0.10):
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    dx = (x_hi - x_lo) or 0.05
    dy = (y_hi - y_lo) or 0.05
    return (
        max(0.0, x_lo - pad * dx),
        min(1.0, x_hi + pad * dx),
        max(0.0, y_lo - pad * dy),
        min(1.0, y_hi + pad * dy),
    )


def identified_set_figure(
    segments,
    apparent=None,
    apparent_box=None,
    scatter=None,
    comparator_boxes=None,
    title="",
) -> str:
    """Segments plus optional apparent point/CI box, scatter and comparators."""
    xs, ys = [], []
    for seg in segments:
        xs += [seg.lo[0], seg.hi[0]]
        ys += [seg.lo[1], seg.hi[1]]
    if apparent is not None:
        xs.append(apparent[0])
        ys.append(apparent[1])
    if apparent_box is not None:
        xs += [apparent_box[0], apparent_box[1]]
        ys += [apparent_box[2], apparent_box[3]]
    if scatter is not None and len(scatter):
        xs += [float(p[0]) for p in scatter]
        ys += [float(p[1]) for p in scatter]
    if comparator_boxes:
        for box in comparator_boxes:
            xs += [box[0], box[1]]
            ys += [box[2], box[3]]
    canvas = SvgCanvas(*_padded_box(xs, ys), x_label="sensitivity", y_label="specificity", title=title)
    if scatter is not None and len(scatter):
        step = max(1, len(scatter) // 3000)
        for p in scatter[::step]:
            canvas.circle(float(p[0]), float(p[1]), r=1.2, color="#9ecae1")
    if comparator_boxes:
        for box in comparator_boxes:
            canvas.rect(*box)
    for seg in segments:
        canvas.line(seg.lo[0], seg.lo[1], seg.hi[0], seg.hi[1], color="#d62728", width=2.5)
    if apparent_box is not None:
        canvas.rect(*apparent_box, stroke="#2ca02c", dash="2 2")
    if apparent is not None:
        canvas.circle(apparent[0], apparent[1], r=4.0, color="#d62728")
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
