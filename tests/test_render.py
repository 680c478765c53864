"""SVG rendering of construction levels."""

import re
from fractions import Fraction
from itertools import product

import pytest

from lipeq import IfsSpec
from lipeq.render import render_svg

from conftest import make_one45


class TestRenderSvg:
    def test_level_zero_single_bar(self):
        svg = render_svg(make_one45(), levels=0)
        assert svg.count("<rect") == 1

    def test_bar_counts_per_level(self):
        svg = render_svg(make_one45(), levels=2)
        # 1 + 3 + 9 bars
        assert svg.count("<rect") == 13

    def test_with_dust_doubles_rows(self):
        spec = make_one45()
        svg = render_svg(spec, levels=1, with_dust=True)
        assert svg.count("<rect") == 2 * (1 + 3)
        assert svg.count("<text") == 2

    def test_touching_bars_coincide(self):
        # levels-1 bars for maps 2 and 3 must share the x coordinate 4/5
        svg = render_svg(make_one45(), levels=1, width=1000)
        assert 'x="812" y="56" width="200"' in svg
        assert 'x="612" y="56" width="200"' in svg

    def test_deterministic(self):
        spec = make_one45()
        assert render_svg(spec, levels=2) == render_svg(spec, levels=2)

    def test_negative_levels_rejected(self):
        with pytest.raises(ValueError):
            render_svg(make_one45(), levels=-1)

    def test_no_descent_below_a_pixel(self):
        # at width 640 the level-4 bars of {1,4,5} are 1.024 px wide and
        # the level-5 ones 0.2048 px: levels 0-4 give 1 + 3 + 9 + 27 + 81
        # bars, and levels 5-12 none
        svg = render_svg(make_one45(), levels=12, width=640)
        assert svg.count("<rect") == 121
        assert render_svg(make_one45(), levels=12, width=640,
                          with_dust=True).count("<rect") == 242
        assert svg.count("<rect") == render_svg(
            make_one45(), levels=4, width=640).count("<rect")

    def test_narrow_bar_skipped_beside_a_wide_one(self):
        # ratios 1/100, 1/2 and 1/4: at width 50 the level-1 bars are
        # 0.5, 25 and 12.5 px, so the first goes with its descendants
        # while its siblings are drawn.  A bar is never wider than its
        # parent, so the drawing holds exactly the words of a bar 1 px
        # wide or more
        spec = IfsSpec([Fraction(1, 100), Fraction(1, 2), Fraction(1, 4)],
                       [Fraction(0), Fraction(1, 4), Fraction(3, 4)],
                       role="touching")
        svg = render_svg(spec, levels=3, width=50)
        wide = [word for level in range(4)
                for word in product((1, 2, 3), repeat=level)
                if spec.cyl_interval(word)[1] - spec.cyl_interval(word)[0]
                >= Fraction(1, 50)]
        assert svg.count("<rect") == len(wide) == 1 + 2 + 4 + 7
        widths = re.findall(r'width="([0-9.]+)" height', svg)
        assert min(float(w) for w in widths) >= 1
