"""Minimal self-contained SVG line charts for batch experiment output.

No external plotting dependency: figures are flat files written once per
run.  Supports multiple series with markers, log-scaled axes, a legend,
and shaded bands.
"""

import math

PALETTE = ["#1f6fb4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f"]

_WIDTH, _HEIGHT = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 36, 52


def _ticks(lo, hi, count=6):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(count - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12 * step:
        out.append(round(t, 12))
        t += step
    return out


def _fmt(v):
    if v == int(v) and abs(v) < 1e6:
        return str(int(v))
    return f"{v:.3g}"


class LineChart:
    """Accumulates series then renders one SVG string."""

    def __init__(self, title="", xlabel="", ylabel="",
                 logx=False, logy=False):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.logx = logx
        self.logy = logy
        self.series = []
        self.bands = []

    def add_series(self, xs, ys, label=""):
        pts = [(float(x), float(y)) for x, y in zip(xs, ys)]
        self.series.append((label, pts))

    def add_band(self, xs, lower, upper):
        self.bands.append([(float(x), float(a), float(b))
                           for x, a, b in zip(xs, lower, upper)])

    def _tx(self, v):
        return math.log10(v) if self.logx else v

    def _ty(self, v):
        return math.log10(v) if self.logy else v

    def render(self):
        xs = [self._tx(x) for _, pts in self.series for x, _ in pts]
        ys = [self._ty(y) for _, pts in self.series for _, y in pts]
        for pts in self.bands:
            xs.extend(self._tx(x) for x, _, _ in pts)
            ys.extend(self._ty(v) for _, a, b in pts for v in (a, b))
        if not xs:
            xs, ys = [0.0, 1.0], [0.0, 1.0]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        if x1 == x0:
            x0, x1 = x0 - 0.5, x1 + 0.5
        if y1 == y0:
            y0, y1 = y0 - 0.5, y1 + 0.5
        padx = 0.04 * (x1 - x0)
        pady = 0.06 * (y1 - y0)
        x0, x1 = x0 - padx, x1 + padx
        y0, y1 = y0 - pady, y1 + pady
        pw = _WIDTH - _ML - _MR
        ph = _HEIGHT - _MT - _MB

        def px(v):
            return _ML + (v - x0) / (x1 - x0) * pw

        def py(v):
            return _MT + ph - (v - y0) / (y1 - y0) * ph

        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}"'
            f' height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
            f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
            f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}"'
            ' fill="none" stroke="#333" stroke-width="1"/>',
        ]
        if self.title:
            out.append(f'<text x="{_WIDTH / 2}" y="22" text-anchor="middle"'
                       f' font-size="15" font-family="sans-serif">{self.title}</text>')
        for t in _ticks(x0, x1):
            if not x0 <= t <= x1:
                continue
            out.append(f'<line x1="{px(t):.1f}" y1="{_MT + ph}" x2="{px(t):.1f}"'
                       f' y2="{_MT + ph + 5}" stroke="#333"/>')
            lab = _fmt(10 ** t) if self.logx else _fmt(t)
            out.append(f'<text x="{px(t):.1f}" y="{_MT + ph + 18}" text-anchor="middle"'
                       f' font-size="11" font-family="sans-serif">{lab}</text>')
        for t in _ticks(y0, y1):
            if not y0 <= t <= y1:
                continue
            out.append(f'<line x1="{_ML - 5}" y1="{py(t):.1f}" x2="{_ML}"'
                       f' y2="{py(t):.1f}" stroke="#333"/>')
            lab = _fmt(10 ** t) if self.logy else _fmt(t)
            out.append(f'<text x="{_ML - 8}" y="{py(t):.1f}" text-anchor="end"'
                       f' dominant-baseline="middle" font-size="11"'
                       f' font-family="sans-serif">{lab}</text>')
        if self.xlabel:
            out.append(f'<text x="{_ML + pw / 2}" y="{_HEIGHT - 14}"'
                       f' text-anchor="middle" font-size="12"'
                       f' font-family="sans-serif">{self.xlabel}</text>')
        if self.ylabel:
            cy = _MT + ph / 2
            out.append(f'<text x="16" y="{cy}" text-anchor="middle" font-size="12"'
                       f' font-family="sans-serif"'
                       f' transform="rotate(-90 16 {cy})">{self.ylabel}</text>')
        for bi, pts in enumerate(self.bands):
            color = PALETTE[bi % len(PALETTE)]
            upper = [(px(self._tx(x)), py(self._ty(b))) for x, _, b in pts]
            lower = [(px(self._tx(x)), py(self._ty(a))) for x, a, _ in pts]
            path = "M" + " L".join(f"{x:.1f},{y:.1f}" for x, y in upper)
            path += " L" + " L".join(f"{x:.1f},{y:.1f}" for x, y in reversed(lower))
            path += " Z"
            out.append(f'<path d="{path}" fill="{color}" fill-opacity="0.18"'
                       ' stroke="none"/>')
        for si, (label, pts) in enumerate(self.series):
            color = PALETTE[si % len(PALETTE)]
            coords = [(px(self._tx(x)), py(self._ty(y))) for x, y in pts]
            path = "M" + " L".join(f"{x:.1f},{y:.1f}" for x, y in coords)
            out.append(f'<path d="{path}" fill="none" stroke="{color}"'
                       ' stroke-width="1.6"/>')
            for x, y in coords:
                out.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3"'
                           f' fill="{color}"/>')
        legend_y = _MT + 14
        for si, (label, _) in enumerate(self.series):
            if not label:
                continue
            color = PALETTE[si % len(PALETTE)]
            out.append(f'<rect x="{_ML + pw - 150}" y="{legend_y - 9}" width="14"'
                       f' height="4" fill="{color}"/>')
            out.append(f'<text x="{_ML + pw - 132}" y="{legend_y - 3}" font-size="11"'
                       f' font-family="sans-serif">{label}</text>')
            legend_y += 16
        out.append("</svg>")
        return "\n".join(out) + "\n"
