"""Deterministic SVG diagrams of braid words.

Strands run top to bottom as polylines, one crossing per letter; the
under-strand is drawn with a gap at the crossing.  Output contains no
timestamps, so identical inputs give byte-identical files.
"""

from __future__ import annotations

from .words import BraidWord

COL_W = 40
ROW_H = 40
MARGIN = 20
STROKE = 2
BOLD_STROKE = 4
GAP = 8


def _x(position: int) -> int:
    return MARGIN + (position - 1) * COL_W


def _y(step: int) -> int:
    return MARGIN + step * ROW_H


def render_svg(w: BraidWord, bold: int | None = None) -> str:
    """Render the diagram; ``bold`` highlights one strand by its top position."""
    if bold is not None and not (1 <= bold <= w.strands):
        raise ValueError(f"bold strand {bold} out of range")
    n = w.strands
    steps = len(w.letters)
    width = 2 * MARGIN + (n - 1) * COL_W
    height = 2 * MARGIN + max(steps, 1) * ROW_H

    # per-strand list of polyline segments; a segment is a list of (x, y)
    paths: dict[int, list[list[tuple[float, float]]]] = {
        s: [[(float(_x(s)), float(_y(0)))]] for s in range(1, n + 1)
    }
    arr = list(range(1, n + 1))
    for step, t in enumerate(w.letters):
        i = abs(t)
        y0, y1 = _y(step), _y(step + 1)
        for p in range(1, n + 1):
            s = arr[p - 1]
            if p in (i, i + 1):
                continue
            paths[s][-1].append((float(_x(p)), float(y1)))
        left, right = arr[i - 1], arr[i]
        # positive sign: the strand entering from the left passes over to
        # position i+1, and the under strand runs along (-1, 1) to position i
        over, under = (left, right) if t > 0 else (right, left)
        over_to, under_to = (i + 1, i) if t > 0 else (i, i + 1)
        paths[over][-1].append((float(_x(over_to)), float(y1)))
        # break the under strand around the midpoint, GAP along its direction
        mx = (_x(i) + _x(i + 1)) / 2
        my = (y0 + y1) / 2
        oy = GAP / 2**0.5
        ox = -oy if t > 0 else oy
        paths[under][-1].append((mx - ox, my - oy))
        paths[under].append([(mx + ox, my + oy), (float(_x(under_to)), float(y1))])
        arr[i - 1], arr[i] = arr[i], arr[i - 1]

    bottom = _y(max(steps, 1))
    for p in range(1, n + 1):
        s = arr[p - 1]
        last = paths[s][-1][-1]
        if last[1] < bottom:
            paths[s][-1].append((float(_x(p)), float(bottom)))

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">'
    ]
    for s in range(1, n + 1):
        stroke = BOLD_STROKE if s == bold else STROKE
        for seg in paths[s]:
            pts = " ".join(f"{x:.1f},{y:.1f}" for x, y in seg)
            lines.append(
                f'<polyline points="{pts}" fill="none" stroke="black" '
                f'stroke-width="{stroke}"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
