"""The kernel memo's contract: a hit is a cold pass, bit for bit.

Canopy and mean-shift passes are memoized on content (``base.KERNELS``,
``repro.memo``); ``conftest.py`` empties the memo before each test.  Cold
passes are counted by a counting build swapped in for the kernel, not by
a counter in the library.
"""

import numpy as np
import pytest

from repro.datasets.sample_data import generate_sample_data
from repro.datasets.synthetic_control import generate_synthetic_control
from repro.experiments import fig6_synthetic_control as fig6
from repro.experiments.common import make_platform
from repro.ml import canopy, meanshift
from repro.ml.base import KERNELS
from repro.ml.canopy import canopy_pass
from repro.ml.meanshift import shift_and_merge
from repro.ml.vectors import EuclideanDistance


class Counting:
    """A kernel build that counts its cold passes."""

    def __init__(self, kernel):
        self.kernel, self.passes = kernel, 0

    def __call__(self, *args):
        self.passes += 1
        return self.kernel(*args)


@pytest.fixture()
def counted(monkeypatch):
    """Both kernels memoized around counting builds: ``{name: Counting}``."""
    builds = {}
    for module, name in ((canopy, "_canopy_pass"),
                         (meanshift, "_shift_and_merge")):
        build = builds[name] = Counting(getattr(module, name).__wrapped__)
        monkeypatch.setattr(module, name, KERNELS.pure(build))
    return builds


def _fig6_points():
    rng = make_platform(seed=0).datacenter.rng.fresh("datasets/control")
    return generate_synthetic_control(n_per_class=300, rng=rng)[0]


def _fig7_points():
    rng = make_platform(seed=0).datacenter.rng.fresh("datasets/sample")
    return generate_sample_data(rng)[0]


def _bits(pairs):
    return [(row.tobytes(), n) for row, n in pairs]


def _passes(points, canopy_t, meanshift_t):
    """A canopy pass and a mean-shift pass over ``points``, as bits."""
    measure = EuclideanDistance()
    canopies, converged = shift_and_merge([(p, 1.0) for p in points],
                                          *meanshift_t, measure, 0.5)
    return (_bits(canopy_pass(points, *canopy_t, measure)),
            _bits(canopies), converged)


@pytest.mark.parametrize("points, canopy_t, meanshift_t", [
    (_fig6_points, (fig6.CANOPY_T1, fig6.CANOPY_T2),
     (fig6.MEANSHIFT_T1, fig6.MEANSHIFT_T2)),
    (_fig7_points, (3.0, 1.5), (2.0, 1.0)),
], ids=["fig6-1800x60", "fig7-1000x2"])
def test_a_hit_equals_a_cold_pass(counted, points, canopy_t, meanshift_t):
    points = points()
    cold = _passes(points, canopy_t, meanshift_t)
    KERNELS._entries.clear()
    _passes(points.copy(), canopy_t, meanshift_t)            # held again
    assert counted["_canopy_pass"].passes == 2
    hit = _passes(points.copy(), canopy_t, meanshift_t)      # new objects
    assert counted["_canopy_pass"].passes == 2
    assert counted["_shift_and_merge"].passes == 2
    assert hit == cold


class OtherEuclidean(EuclideanDistance):
    """The same distances under another type."""


class ScaledEuclidean(EuclideanDistance):
    def __init__(self, scale):
        self.scale = scale

    def to_centers(self, points, centers):
        return self.scale * super().to_centers(points, centers)


def test_any_change_to_an_input_is_a_miss(counted):
    points = _fig7_points()[:200]
    points[0, 0] = 0.0
    build = counted["_canopy_pass"]
    canopy_pass(points, 3.0, 1.5, EuclideanDistance())
    canopy_pass(points, 3.0, 1.5, EuclideanDistance())  # another instance
    assert build.passes == 1
    ulp = points.copy()
    ulp[7, 1] = np.nextafter(ulp[7, 1], np.inf)
    negative_zero = points.copy()
    negative_zero[0, 0] = -0.0
    for variant in (
            (ulp, 3.0, 1.5, EuclideanDistance()),
            (negative_zero, 3.0, 1.5, EuclideanDistance()),
            (points, 3.0, 1.5, OtherEuclidean()),
            (points, 3.0, 1.5, ScaledEuclidean(1.0)),
            (points, 3.0, 1.5, ScaledEuclidean(2.0)),
            (points, float(np.nextafter(3.0, 4.0)), 1.5, EuclideanDistance()),
            (points, 3.0, 1.25, EuclideanDistance()),
            (points, np.float64(3.0), 1.5, EuclideanDistance())):
        passes = build.passes
        canopy_pass(*variant)
        assert build.passes == passes + 1
        canopy_pass(*variant)
        assert build.passes == passes + 1
    build = counted["_shift_and_merge"]
    canopies = [(p, 1.0) for p in points]
    shift_and_merge(canopies, 2.0, 1.0, EuclideanDistance(), 0.5)
    for variant in (
            ([(p, 1.0) for p in ulp], 2.0, 1.0, EuclideanDistance(), 0.5),
            ([(p, 1.0) for p in negative_zero], 2.0, 1.0,
             EuclideanDistance(), 0.5),
            (canopies[:-1] + [(points[-1], 2.0)], 2.0, 1.0,
             EuclideanDistance(), 0.5),
            (canopies, 2.0, 1.0, OtherEuclidean(), 0.5),
            (canopies, 2.5, 1.0, EuclideanDistance(), 0.5),
            (canopies, 2.0, 1.5, EuclideanDistance(), 0.5),
            (canopies, 2.0, 1.0, EuclideanDistance(), 0.25)):
        passes = build.passes
        shift_and_merge(*variant)
        assert build.passes == passes + 1
        shift_and_merge(*variant)
        assert build.passes == passes + 1


def test_mutating_a_returned_list_does_not_change_the_next_hit(counted):
    points = _fig7_points()[:300]
    measure = EuclideanDistance()
    got = canopy_pass(points, 3.0, 1.5, measure)
    expected = _bits(got)
    got.clear()
    merged, converged = shift_and_merge([(p, 1.0) for p in points], 2.0,
                                        1.0, measure, 0.5)
    expected_merged = _bits(merged)
    merged[0] = (np.zeros(2), 0.0)
    merged.append(merged[0])
    assert _bits(canopy_pass(points, 3.0, 1.5, measure)) == expected
    again, again_converged = shift_and_merge([(p, 1.0) for p in points],
                                             2.0, 1.0, measure, 0.5)
    assert _bits(again) == expected_merged and again_converged == converged
    assert counted["_canopy_pass"].passes == 1
    assert counted["_shift_and_merge"].passes == 1
    with pytest.raises(ValueError):              # the rows are read-only
        again[0][0][0] = 1.0


def test_a_pass_that_raises_stores_nothing(counted):
    class Failing(EuclideanDistance):
        fail = True

        def to_centers(self, points, centers):
            if Failing.fail:
                raise FloatingPointError("injected")
            return super().to_centers(points, centers)

    points = _fig7_points()[:50]
    with pytest.raises(FloatingPointError):
        canopy_pass(points, 3.0, 1.5, Failing())
    assert not KERNELS._entries
    Failing.fail = False
    assert _bits(canopy_pass(points, 3.0, 1.5, Failing())) == \
        _bits(canopy_pass(points, 3.0, 1.5, EuclideanDistance()))
    assert counted["_canopy_pass"].passes == 3


def test_the_bound_evicts_the_least_recently_used_pass(counted):
    points = _fig7_points()[:20]
    measure = EuclideanDistance()
    build = counted["_canopy_pass"]
    t1s = [3.0 + i for i in range(KERNELS.bound + 1)]
    for t1 in t1s[:-1]:
        canopy_pass(points, t1, 1.5, measure)
    canopy_pass(points, t1s[0], 1.5, measure)       # the first is now recent
    canopy_pass(points, t1s[-1], 1.5, measure)
    assert len(KERNELS._entries) == KERNELS.bound
    assert build.passes == KERNELS.bound + 1
    canopy_pass(points, t1s[0], 1.5, measure)       # still held
    assert build.passes == KERNELS.bound + 1
    canopy_pass(points, t1s[1], 1.5, measure)       # evicted
    assert build.passes == KERNELS.bound + 2


def test_a_four_size_sweep_computes_each_distinct_pass_once(counted,
                                                            monkeypatch):
    calls = {"canopy_pass": 0, "shift_and_merge": 0}
    for module, name in ((canopy, "canopy_pass"),
                         (meanshift, "shift_and_merge")):
        def counting(*args, _kernel=getattr(module, name), _name=name):
            calls[_name] += 1
            return _kernel(*args)
        monkeypatch.setattr(module, name, counting)
    first = fig6.run(scales=(2,), n_per_class=20, max_iterations=3)
    passes = {name: build.passes for name, build in counted.items()}
    per_size = dict(calls)
    assert passes == {"_canopy_pass": per_size["canopy_pass"],
                      "_shift_and_merge": per_size["shift_and_merge"]}
    sweep = fig6.run(scales=(2, 4, 8, 16), n_per_class=20, max_iterations=3)
    assert {name: build.passes for name, build in counted.items()} == passes
    assert calls == {name: 5 * n for name, n in per_size.items()}
    assert sweep.rows[0] == first.rows[0]
