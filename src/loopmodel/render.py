"""Static diagrams: ASCII grid states and SVG chord diagrams.

The ASCII renderer draws a packed-loop state on the square grid with
its numbered boundary stubs; the SVG renderer draws a link pattern as
a circle of numbered points joined by noncrossing chords.  Both are
deterministic text generators with no runtime dependencies.
"""
from __future__ import annotations

from . import fpl as _fpl
from .fpl import B, L, R, U, FplState
from .patterns import LinkPattern


class _Canvas:
    """Sparse character grid flushed to text lines."""

    def __init__(self) -> None:
        self.cells: dict[tuple[int, int], str] = {}

    def put(self, y: int, x: int, s: str) -> None:
        for k, ch in enumerate(s):
            if ch != " ":
                self.cells[(y, x + k)] = ch

    def text(self) -> str:
        if not self.cells:
            return "\n"
        ys = [y for y, _ in self.cells]
        xs = [x for _, x in self.cells]
        lines = []
        for y in range(min(ys), max(ys) + 1):
            row = [self.cells.get((y, x), " ") for x in range(0, max(xs) + 1)]
            lines.append("".join(row).rstrip())
        return "\n".join(lines) + "\n"


def ascii_state(state: FplState) -> str:
    """Draw the selected edges of a state, stubs numbered as exported.

    Vertices are "+", horizontal edges "---", vertical edges "|";
    boundary stubs carry their circle position number just outside.
    """
    n = state.n
    x0, y0 = 5, 2  # left margin fits 2-digit labels plus stub dashes
    canvas = _Canvas()

    for r in range(n):
        for c in range(n):
            y, x = y0 + 2 * r, x0 + 4 * c
            canvas.put(y, x, "+")
            m = state.shape(r + 1, c + 1)
            if m & U:
                canvas.put(y - 1, x, "|")
            if m & L:
                if c == 0:
                    canvas.put(y, x - 2, "--")
                else:
                    canvas.put(y, x - 3, "---")
            if m & B and r == n - 1:
                canvas.put(y + 1, x, "|")
            if m & R and c == n - 1:
                canvas.put(y, x + 1, "--")

    for num, (side, idx) in _fpl.stub_positions(n).items():
        text = str(num)
        y = y0 + 2 * (idx - 1)
        x = x0 + 4 * (idx - 1)
        if side == "T":
            canvas.put(0, x - len(text) // 2, text)
        elif side == "B":
            canvas.put(y0 + 2 * n, x - len(text) // 2, text)
        elif side == "L":
            canvas.put(y, 0, f"{num:2d}")
        else:
            canvas.put(y, x0 + 4 * (n - 1) + 4, text)
    return canvas.text()


def svg_chords(p: LinkPattern, size: int = 360) -> str:
    """Chord diagram of a link pattern as a standalone SVG document.

    Position 1 sits at the top and numbering runs clockwise; chords
    bow toward the center so nested arcs stay visually separated.
    """
    import math

    two_n = 2 * p.n
    cx = cy = size / 2
    radius = size * 0.38

    def point(k: int, rad: float) -> tuple[float, float]:
        # SVG y grows downward, so increasing angle is clockwise
        theta = -math.pi / 2 + 2 * math.pi * (k - 1) / two_n
        return cx + rad * math.cos(theta), cy + rad * math.sin(theta)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">',
        f'  <circle cx="{cx:.1f}" cy="{cy:.1f}" r="{radius:.1f}" '
        'fill="none" stroke="#999" stroke-width="1"/>',
    ]
    for a, b in p.pairs():
        x1, y1 = point(a, radius)
        x2, y2 = point(b, radius)
        # pull the control point toward the center, harder for far pairs
        sep = min((b - a) % two_n, (a - b) % two_n)
        pull = 1.0 - 1.6 * sep / two_n
        mx, my = (x1 + x2) / 2, (y1 + y2) / 2
        qx, qy = cx + (mx - cx) * pull, cy + (my - cy) * pull
        parts.append(
            f'  <path d="M {x1:.1f} {y1:.1f} Q {qx:.1f} {qy:.1f} '
            f'{x2:.1f} {y2:.1f}" fill="none" stroke="#06c" '
            'stroke-width="2"/>'
        )
    for k in range(1, two_n + 1):
        x, y = point(k, radius)
        lx, ly = point(k, radius + size * 0.07)
        parts.append(
            f'  <circle cx="{x:.1f}" cy="{y:.1f}" r="3" fill="#333"/>'
        )
        parts.append(
            f'  <text x="{lx:.1f}" y="{ly:.1f}" font-size="{size * 0.04:.0f}" '
            'text-anchor="middle" dominant-baseline="middle" '
            f'font-family="sans-serif">{k}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
