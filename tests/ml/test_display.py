"""Unit tests for the ASCII DisplayClustering renderer."""

import numpy as np

from repro.ml import KMeansDriver, LocalExecutor, points_as_records
from repro.ml.display import (HEIGHT, WIDTH, AsciiCanvas, describe_result,
                              render_history, render_points)


def grid_points():
    rng = np.random.default_rng(3)
    return rng.normal(size=(100, 2))


def test_render_points_draws_dots():
    out = render_points(grid_points())
    lines = out.splitlines()
    assert len(lines) == HEIGHT + 2  # rows + 2 borders
    assert all(len(line) == WIDTH + 2 for line in lines)
    assert "." in out


def test_render_history_overlays_iterations():
    pts = grid_points()
    executor = LocalExecutor({"/in": points_as_records(pts)})
    result = KMeansDriver(k=2, max_iterations=8).run(executor, "/in")
    out = render_history(pts, result)
    assert "A" in out and "B" in out
    if result.iterations > 1:
        assert "'" in out  # faint earlier rings


def test_canvas_out_of_window_points_ignored():
    canvas = AsciiCanvas(np.array([[0.0, 0.0], [1.0, 1.0]]))
    canvas.plot(100.0, 100.0, "X")
    assert "X" not in canvas.render()


def test_describe_result_mentions_algorithm():
    executor = LocalExecutor({"/in": points_as_records(grid_points())})
    result = KMeansDriver(k=2, max_iterations=5).run(executor, "/in")
    text = describe_result(result)
    assert "kmeans" in text
    assert "cluster 0" in text
