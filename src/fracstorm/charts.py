"""Hand-rolled SVG rendering of excitation sweep results.

No plotting dependency: the chart is assembled as an SVG string with a data
series, the fitted growth line, the theoretical slope for comparison, plain
axes with ticks, and a slope annotation.  Axes are ln(lambda) horizontally
and ln(log E_t) vertically, the coordinates in which the noise-excitation
index is the straight-line slope.
"""

import numpy as np

from .errors import DomainError

__all__ = ["render_excitation_svg"]

_WIDTH = 640
_HEIGHT = 420
_MARGIN_L = 70
_MARGIN_R = 20
_MARGIN_T = 46
_MARGIN_B = 52


def _fmt(v):
    """Compact deterministic number formatting for tick labels."""
    return f"{v:.3g}"


def _svg_escape(s):
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_excitation_svg(fit):
    """Render an ExcitationFit as a self-contained SVG document string.

    Plots ln(log E_t) against ln(lambda): sweep points (fit-window points
    filled, others open), the fitted line through the window, and a dashed
    reference line with the theoretical slope anchored at the window mean.
    """
    lam = np.asarray(fit.lambdas, dtype=float)
    logv = np.asarray(fit.log_values, dtype=float)
    mask = np.asarray(fit.fit_mask, dtype=bool)
    plot = np.isfinite(logv) & (logv > 0.0)
    if int(np.count_nonzero(plot)) < 2:
        raise DomainError("need at least two points with E_t > 1 to chart")

    x = np.log(lam[plot])
    y = np.log(logv[plot])
    infit = mask[plot]

    x0, x1 = float(x.min()), float(x.max())
    y0, y1 = float(y.min()), float(y.max())
    xpad = 0.05 * (x1 - x0 or 1.0)
    ypad = 0.08 * (y1 - y0 or 1.0)
    x0, x1 = x0 - xpad, x1 + xpad
    y0, y1 = y0 - ypad, y1 + ypad

    iw = _WIDTH - _MARGIN_L - _MARGIN_R
    ih = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(u):
        return _MARGIN_L + (u - x0) / (x1 - x0) * iw

    def py(v):
        return _MARGIN_T + (y1 - v) / (y1 - y0) * ih

    # Fitted line through the window points; theory line anchored at their mean.
    xm = float(np.mean(x[infit]))
    ym = float(np.mean(y[infit]))
    b_fit = ym - fit.slope * xm

    def clip_line(slope, intercept):
        """Segment of y = slope*x + intercept inside the plot box."""
        pts = []
        for xv in (x0, x1):
            yv = slope * xv + intercept
            if y0 <= yv <= y1:
                pts.append((xv, yv))
        if slope != 0.0:
            for yv in (y0, y1):
                xv = (yv - intercept) / slope
                if x0 <= xv <= x1:
                    pts.append((xv, yv))
        if len(pts) < 2:
            return None
        pts.sort()
        return pts[0], pts[-1]

    parts = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">'
    )
    parts.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')

    # Axes box and ticks.
    bx0, bx1 = _MARGIN_L, _WIDTH - _MARGIN_R
    by0, by1 = _MARGIN_T, _HEIGHT - _MARGIN_B
    parts.append(
        f'<rect x="{bx0}" y="{by0}" width="{iw}" height="{ih}" fill="none" '
        'stroke="#444" stroke-width="1"/>'
    )
    for tv in np.linspace(x0, x1, 5):
        tx = px(tv)
        parts.append(
            f'<line x1="{tx:.1f}" y1="{by1}" x2="{tx:.1f}" y2="{by1 + 5}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{tx:.1f}" y="{by1 + 18}" text-anchor="middle" '
            f'fill="#222">{_fmt(tv)}</text>'
        )
    for tv in np.linspace(y0, y1, 5):
        ty = py(tv)
        parts.append(
            f'<line x1="{bx0 - 5}" y1="{ty:.1f}" x2="{bx0}" y2="{ty:.1f}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{bx0 - 8}" y="{ty + 4:.1f}" text-anchor="end" '
            f'fill="#222">{_fmt(tv)}</text>'
        )
    parts.append(
        f'<text x="{(bx0 + bx1) / 2:.1f}" y="{_HEIGHT - 14}" text-anchor="middle" '
        'fill="#222">ln &#955;</text>'
    )
    parts.append(
        f'<text x="18" y="{(by0 + by1) / 2:.1f}" text-anchor="middle" fill="#222" '
        f'transform="rotate(-90 18 {(by0 + by1) / 2:.1f})">ln log E_t</text>'
    )

    # Theory reference line (dashed) and fitted line (solid accent).
    seg = clip_line(fit.theory, ym - fit.theory * xm)
    if seg is not None:
        (ax, ay), (bx, by) = seg
        parts.append(
            f'<line x1="{px(ax):.1f}" y1="{py(ay):.1f}" x2="{px(bx):.1f}" '
            f'y2="{py(by):.1f}" stroke="#b23" stroke-width="1.5" '
            'stroke-dasharray="7 5"/>'
        )
    seg = clip_line(fit.slope, b_fit)
    if seg is not None:
        (ax, ay), (bx, by) = seg
        parts.append(
            f'<line x1="{px(ax):.1f}" y1="{py(ay):.1f}" x2="{px(bx):.1f}" '
            f'y2="{py(by):.1f}" stroke="#17a" stroke-width="1.5"/>'
        )

    # Data polyline and markers (window points filled, others open).
    pline = " ".join(f"{px(a):.1f},{py(b):.1f}" for a, b in zip(x, y))
    parts.append(
        f'<polyline points="{pline}" fill="none" stroke="#666" stroke-width="1"/>'
    )
    for a, b, used in zip(x, y, infit):
        fill = "#17a" if used else "white"
        parts.append(
            f'<circle cx="{px(a):.1f}" cy="{py(b):.1f}" r="3.5" fill="{fill}" '
            'stroke="#17a" stroke-width="1.2"/>'
        )

    # Title and slope annotation.
    title = (
        f"excitation sweep (volterra, {_svg_escape(fit.functional)}, "
        f"t={fit.t:g})"
    )
    parts.append(
        f'<text x="{bx0}" y="{_MARGIN_T - 26}" fill="#000" '
        f'font-size="14" font-weight="bold">{title}</text>'
    )
    rel = abs(fit.slope - fit.theory) / abs(fit.theory)
    parts.append(
        f'<text x="{bx0}" y="{_MARGIN_T - 9}" fill="#222">'
        f'fitted index {fit.slope:.4f}, theory {fit.theory:.4f} '
        f'(rel. dev. {100.0 * rel:.1f}%)</text>'
    )
    legend_y = by0 + 16
    parts.append(
        f'<line x1="{bx1 - 150}" y1="{legend_y}" x2="{bx1 - 120}" y2="{legend_y}" '
        'stroke="#17a" stroke-width="1.5"/>'
    )
    parts.append(f'<text x="{bx1 - 114}" y="{legend_y + 4}" fill="#222">fit</text>')
    parts.append(
        f'<line x1="{bx1 - 150}" y1="{legend_y + 16}" x2="{bx1 - 120}" '
        f'y2="{legend_y + 16}" stroke="#b23" stroke-width="1.5" stroke-dasharray="7 5"/>'
    )
    parts.append(
        f'<text x="{bx1 - 114}" y="{legend_y + 20}" fill="#222">theory</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
