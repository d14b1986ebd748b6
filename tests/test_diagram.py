"""Deterministic SVG rendering of braid diagrams."""

import hashlib

import pytest

from braidforms.diagram import render_svg
from braidforms.words import word


class TestRenderSvg:
    def test_empty_word_draws_parallel_strands(self):
        svg = render_svg(word(4))
        assert svg.count("<polyline") == 4

    def test_crossing_splits_under_strand(self):
        # one crossing: over strand in one piece, under strand in two
        svg = render_svg(word(2, [1]))
        assert svg.count("<polyline") == 3

    def test_crossing_count_matches_word_length(self):
        svg = render_svg(word(4, [3, -2, -2, 1]))
        # each crossing adds exactly one extra segment for the under strand
        assert svg.count("<polyline") == 4 + 4

    def test_deterministic(self):
        assert render_svg(word(3, [1, -2])) == render_svg(word(3, [1, -2]))

    def test_no_timestamps_or_randomness(self):
        svg = render_svg(word(3, [2, 1]))
        assert "date" not in svg.lower()
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>\n")

    def test_bold_strand_styling(self):
        plain = render_svg(word(3, [1]))
        bold = render_svg(word(3, [1]), bold=2)
        assert 'stroke-width="4"' not in plain
        assert 'stroke-width="4"' in bold

    def test_bold_range_checked(self):
        with pytest.raises(ValueError):
            render_svg(word(3, [1]), bold=4)

    def test_bytes_pinned(self):
        # both signs: x1 sends the under strand back along (-1, 1), x1^-1 along (1, 1)
        assert render_svg(word(2, [1, -1])) == (
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            'width="80" height="120" viewBox="0 0 80 120">\n'
            '<polyline points="20.0,20.0 60.0,60.0 20.0,100.0" fill="none" '
            'stroke="black" stroke-width="2"/>\n'
            '<polyline points="60.0,20.0 45.7,34.3" fill="none" '
            'stroke="black" stroke-width="2"/>\n'
            '<polyline points="34.3,45.7 20.0,60.0 34.3,74.3" fill="none" '
            'stroke="black" stroke-width="2"/>\n'
            '<polyline points="45.7,85.7 60.0,100.0" fill="none" '
            'stroke="black" stroke-width="2"/>\n'
            "</svg>\n"
        )
        svg = render_svg(word(4, [3, -2, -2, 1]), bold=2)
        assert hashlib.sha256(svg.encode()).hexdigest() == (
            "afb87dbf8cafd0ba4feca87d2a3b240aada7c6d8ecac47e065dce60c39f976eb"
        )
