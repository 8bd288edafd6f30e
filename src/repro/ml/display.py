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


def _bounds(points: np.ndarray, pad: float = 0.05
            ) -> tuple[float, float, float, float]:
    x0, y0 = points.min(axis=0)[:2]
    x1, y1 = points.max(axis=0)[:2]
    dx, dy = max(x1 - x0, 1e-9), max(y1 - y0, 1e-9)
    return x0 - pad * dx, x1 + pad * dx, y0 - pad * dy, y1 + pad * dy


class AsciiCanvas:
    """A character raster over a 2-D data window."""

    def __init__(self, points: np.ndarray, width: int = 72, height: int = 28):
        self.width, self.height = width, height
        self.x0, self.x1, self.y0, self.y1 = _bounds(np.asarray(points))
        self.grid = [[" "] * width for _ in range(height)]

    def _to_cell(self, x: float, y: float) -> Optional[tuple[int, int]]:
        col = int((x - self.x0) / (self.x1 - self.x0) * (self.width - 1))
        row = int((self.y1 - y) / (self.y1 - self.y0) * (self.height - 1))
        if 0 <= row < self.height and 0 <= col < self.width:
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

    def circle(self, cx: float, cy: float, radius: float, glyph: str = "+",
               segments: int = 48) -> None:
        for theta in np.linspace(0.0, 2.0 * np.pi, segments, endpoint=False):
            self.plot(cx + radius * np.cos(theta),
                      cy + radius * np.sin(theta), glyph, overwrite=False)

    def render(self) -> str:
        border = "+" + "-" * self.width + "+"
        body = "\n".join("|" + "".join(row) + "|" for row in self.grid)
        return f"{border}\n{body}\n{border}"


def render_points(points: np.ndarray, width: int = 72, height: int = 28
                  ) -> str:
    """Fig. 8(a): the raw sample data."""
    canvas = AsciiCanvas(points, width, height)
    for x, y in np.asarray(points)[:, :2]:
        canvas.plot(x, y, ".", overwrite=False)
    return canvas.render()


def render_history(points: np.ndarray, result: ClusteringResult,
                   width: int = 72, height: int = 28) -> str:
    """Fig. 8(b)-(f): superimpose the iterations — the last five earlier
    rings faint (``'``), the final clusters bold (``+`` rings, letter
    centers)."""
    pts = np.asarray(points)
    canvas = AsciiCanvas(pts, width, height)
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
