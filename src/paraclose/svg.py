"""Minimal SVG rendering for polygons and parametric profiles.

Hand-rolled markup, no drawing dependency: a filled hull outline with
vertex markers (the upper chain dashed on top), an optional cloud of
projected points behind it, and for profiles the upper envelope of the
piece lines over a lam window that shows every breakpoint.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParacloseError
from .parametric import rat_str
from .polygon import _chains

W, H, PAD = 480, 360, 28


def _fit(points):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    sx = (x1 - x0) or 1
    sy = (y1 - y0) or 1

    def to(p):
        x = PAD + (W - 2 * PAD) * (p[0] - x0) / sx
        y = H - PAD - (H - 2 * PAD) * (p[1] - y0) / sy
        return (round(float(x), 2), round(float(y), 2))

    return to


def _tag(name, **attrs):
    parts = "".join(f' {k.replace("_", "-")}="{v}"' for k, v in attrs.items())
    return f"<{name}{parts} />"


def _path(pts, close=False, **attrs):
    d = "M " + " L ".join(f"{x} {y}" for x, y in pts) + (" Z" if close else "")
    return _tag("path", d=d, **attrs)


def _doc(body):
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">'
    )
    bg = f'<rect width="{W}" height="{H}" fill="white" />'
    return "\n".join([head, bg, *body, "</svg>"]) + "\n"


def polygon_svg(poly, cloud=None):
    """SVG of a polygon: hull outline, vertex dots, dashed upper chain,
    and an optional iterable of background points."""
    if poly.is_empty:
        raise ParacloseError("plot of an empty polygon")
    cloud = [tuple(p) for p in cloud] if cloud else []
    to = _fit(list(poly.vertices) + cloud)
    body = []
    for p in cloud:
        x, y = to(p)
        body.append(_tag("circle", cx=x, cy=y, r=2, fill="#9db8d2"))
    hull = [to(p) for p in poly.vertices]
    if len(hull) >= 2:
        body.append(
            _path(hull, close=len(hull) > 2, fill="#dce9f5", fill_opacity="0.55",
                  stroke="#27537a", stroke_width=1.5)
        )
    upper = [to(p) for p, _ in _chains(poly, False)[1]]
    if len(upper) >= 2:
        body.append(
            _path(upper, stroke="#c0392b", stroke_width=2, fill="none",
                  stroke_dasharray="6 4")
        )
    for p in poly.vertices:
        x, y = to(p)
        body.append(_tag("circle", cx=x, cy=y, r=3.5, fill="#27537a"))
    return _doc(body)


def _window(pieces):
    cuts = [p.hi for p in pieces if p.hi is not None]
    if not cuts:
        return Fraction(-5), Fraction(5)
    lo, hi = min(cuts), max(cuts)
    margin = (hi - lo) / 5 + 1
    return lo - margin, hi + margin


def profile_svg(pieces):
    """SVG of a parametric profile: the upper envelope with one polyline
    node per breakpoint, breakpoints marked and labeled."""
    if not pieces:
        raise ParacloseError("plot of an empty profile")
    lam0, lam1 = _window(pieces)
    nodes = []  # (lam, value) corners of the envelope
    for k, p in enumerate(pieces):
        a = p.lo if p.lo is not None else lam0
        b = p.hi if p.hi is not None else lam1
        if k == 0:
            nodes.append((a, p.value_at(a)))
        nodes.append((b, p.value_at(b)))
    to = _fit(nodes)
    body = [_path([to(p) for p in nodes], stroke="#27537a", stroke_width=2, fill="none")]
    for p in pieces[:-1]:
        x, y = to((p.hi, p.value_at(p.hi)))
        body.append(_tag("circle", cx=x, cy=y, r=3.5, fill="#c0392b"))
        body.append(
            f'<text x="{x}" y="{y - 8}" font-size="11" text-anchor="middle" '
            f'fill="#444">{rat_str(p.hi)}</text>'
        )
    return _doc(body)
