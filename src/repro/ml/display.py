"""DisplayClustering: ASCII rendering of the Fig. 8 panels.

Mahout's ``DisplayClustering`` examples draw the sample points and
superimpose each iteration's clusters, the last iteration in bold.  A
terminal reproduction renders the 2-D scatter as a character grid:

* points are drawn as ``.``;
* cluster centers are capital letters with a circle of ``+`` marks at one
  radius (the model parameter overlay);
* earlier iterations can be overlaid as fainter rings with
  :func:`render_history`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ml.base import ClusteringResult

_CENTER_GLYPHS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"

#: Panel size in characters (inside the border).
WIDTH = 72
HEIGHT = 28
#: Margin around the data, as a fraction of its extent on each axis.
PAD = 0.05
#: Marks drawn per cluster ring.
RING_SEGMENTS = 48


def _bounds(points: np.ndarray) -> tuple[float, float, float, float]:
    x0, y0 = points.min(axis=0)[:2]
    x1, y1 = points.max(axis=0)[:2]
    dx, dy = max(x1 - x0, 1e-9), max(y1 - y0, 1e-9)
    return x0 - PAD * dx, x1 + PAD * dx, y0 - PAD * dy, y1 + PAD * dy


class AsciiCanvas:
    """A :data:`WIDTH` × :data:`HEIGHT` character raster over a 2-D data
    window."""

    def __init__(self, points: np.ndarray):
        self.x0, self.x1, self.y0, self.y1 = _bounds(np.asarray(points))
        self.grid = [[" "] * WIDTH for _ in range(HEIGHT)]

    def _to_cell(self, x: float, y: float) -> Optional[tuple[int, int]]:
        col = int((x - self.x0) / (self.x1 - self.x0) * (WIDTH - 1))
        row = int((self.y1 - y) / (self.y1 - self.y0) * (HEIGHT - 1))
        if 0 <= row < HEIGHT and 0 <= col < WIDTH:
            return row, col
        return None

    def plot(self, x: float, y: float, glyph: str,
             overwrite: bool = True) -> None:
        cell = self._to_cell(x, y)
        if cell is None:
            return
        row, col = cell
        if overwrite or self.grid[row][col] == " ":
            self.grid[row][col] = glyph

    def circle(self, cx: float, cy: float, radius: float,
               glyph: str = "+") -> None:
        for theta in np.linspace(0.0, 2.0 * np.pi, RING_SEGMENTS,
                                 endpoint=False):
            self.plot(cx + radius * np.cos(theta),
                      cy + radius * np.sin(theta), glyph, overwrite=False)

    def render(self) -> str:
        border = "+" + "-" * WIDTH + "+"
        body = "\n".join("|" + "".join(row) + "|" for row in self.grid)
        return f"{border}\n{body}\n{border}"


def render_points(points: np.ndarray) -> str:
    """Fig. 8(a): the raw sample data."""
    canvas = AsciiCanvas(points)
    for x, y in np.asarray(points)[:, :2]:
        canvas.plot(x, y, ".", overwrite=False)
    return canvas.render()


def render_history(points: np.ndarray, result: ClusteringResult) -> str:
    """Fig. 8(b)-(f): superimpose the iterations — the last five earlier
    rings faint (``'``), the final clusters bold (``+`` rings, letter
    centers)."""
    pts = np.asarray(points)
    canvas = AsciiCanvas(pts)
    for x, y in pts[:, :2]:
        canvas.plot(x, y, ".", overwrite=False)
    for models in result.history[-6:-1]:
        for model in models:
            if model.radius > 0:
                canvas.circle(model.center[0], model.center[1],
                              model.radius, glyph="'")
    for model in result.models:
        if model.radius > 0:
            canvas.circle(model.center[0], model.center[1], model.radius)
        canvas.plot(model.center[0], model.center[1],
                    _CENTER_GLYPHS[model.cluster_id % len(_CENTER_GLYPHS)])
    return canvas.render()


def describe_result(result: ClusteringResult) -> str:
    """One-paragraph text summary of a clustering outcome."""
    lines = [f"{result.algorithm}: {result.k} clusters after "
             f"{result.iterations} iteration(s)"
             f"{' (converged)' if result.converged else ''},"
             f" {result.runtime_s:.1f} simulated seconds"]
    for model in result.models:
        center = ", ".join(f"{c:.2f}" for c in model.center[:4])
        lines.append(f"  cluster {model.cluster_id}: center=({center})"
                     f" weight={model.weight:.0f} radius={model.radius:.2f}")
    return "\n".join(lines)
