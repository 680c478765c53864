"""SVG rendering of the first construction levels.

Bars are drawn from the exact cylinder endpoints, so touching intervals
coincide to the pixel and gaps are to scale.  Output is deterministic:
equal inputs give byte-identical SVG.
"""

BAR_H = 16
ROW_GAP = 10
MARGIN = 12
LABEL_H = 18

_TOUCH_FILL = "#2f6db3"
_DUST_FILL = "#b3622f"


def _fmt(x):
    return ("%.4f" % x).rstrip("0").rstrip(".")


def _level_bars(spec, levels, width):
    """The bars (x, w) of levels 0..``levels``, one list per level, in
    address order.  A bar narrower than one pixel is neither drawn nor
    descended into: its descendants are narrower still."""
    words = [()]
    for level in range(levels + 1):
        bars, wide = [], []
        for word in words:
            lo, hi = spec.cyl_interval(word)
            w = float(hi - lo) * width
            if w >= 1:
                bars.append((float(lo) * width, w))
                wide.append(word)
        yield bars
        words = [word + (c,) for word in wide
                 for c in range(1, spec.n + 1)]


def _row_svg(out, spec, levels, x0, y0, width, fill, title):
    out.append('<text x="%s" y="%s" font-size="12" '
               'font-family="monospace">%s</text>'
               % (_fmt(x0), _fmt(y0 + 12), title))
    y = y0 + LABEL_H
    for bars in _level_bars(spec, levels, width):
        for x, w in bars:
            out.append('<rect x="%s" y="%s" width="%s" height="%s" '
                       'fill="%s"/>'
                       % (_fmt(x0 + x), _fmt(y), _fmt(w), _fmt(BAR_H),
                          fill))
        y += BAR_H + ROW_GAP
    return y


def render_svg(spec, levels=2, width=640, with_dust=False):
    """SVG of construction levels 0..levels, without the bars narrower
    than one pixel; optionally with the dust counterpart drawn underneath
    for side-by-side comparison."""
    if levels < 0:
        raise ValueError("levels must be nonnegative")
    out = []
    y = MARGIN
    body = []
    y = _row_svg(body, spec, levels, MARGIN, y, width, _TOUCH_FILL,
                 "attractor")
    if with_dust:
        y += ROW_GAP
        dust = spec.dust()
        y = _row_svg(body, dust, levels, MARGIN, y, width, _DUST_FILL,
                     "equally spaced dust")
    total_w = width + 2 * MARGIN
    total_h = y + MARGIN
    out.append('<svg xmlns="http://www.w3.org/2000/svg" width="%d" '
               'height="%s" viewBox="0 0 %d %s">'
               % (total_w, _fmt(total_h), total_w, _fmt(total_h)))
    out.extend(body)
    out.append('</svg>')
    return "\n".join(out) + "\n"
