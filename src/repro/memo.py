"""The per-process memo of pure functions, keyed on content.

Two users hold one :class:`Memo` each, with their own entry bound:

* the dataset generators (:data:`DATASETS`, through :func:`cached`): a
  dataset is a pure function of its build function, its parameters and
  the state of the ``numpy.random.Generator`` it draws from;
* the clustering kernels that the Figs. 6-7 scale sweep repeats on the
  same inputs once per cluster size (``repro.ml.base.KERNELS``).

The rules are the same for both:

* A key is built from content, never from object identity (:func:`key`):
  an array by dtype, shape and the sha256 of its bytes, a float by type
  and bits (``-0.0`` is not ``+0.0``), an object with state by type and
  that state; functions and types stand for themselves.  Keys hold
  digests, not array bytes.
* Every call returns a fresh container (new tuples and lists, new arrays
  at the top level; a list's items are shared, so the kernels hand out
  read-only rows): a caller that mutates its copy cannot change the next
  hit.
* A call that raises stores nothing.
* At most ``bound`` results are held; the least recently used goes first.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import wraps

import numpy as np

from repro.digest import content


def key(value):
    """A hashable stand-in for ``value`` that equals another only when the
    two have equal content and the same types."""
    if isinstance(value, dict):
        return tuple((k, key(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return type(value), tuple(key(v) for v in value)
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape,
                content(np.ascontiguousarray(value)))
    if isinstance(value, float):
        return type(value), value.hex()
    if callable(value) or not hasattr(value, "__dict__"):
        return type(value), value
    return type(value), key(vars(value))


def _fresh(value):
    if isinstance(value, tuple):
        return tuple(_fresh(v) for v in value)
    if isinstance(value, list):
        return list(value)
    if isinstance(value, np.ndarray):
        return value.copy()
    return value


class Memo:
    """At most ``bound`` results, least recently used evicted first."""

    def __init__(self, bound: int):
        self.bound = bound
        self._entries: OrderedDict = OrderedDict()

    def recall(self, entry_key, compute):
        """``compute()``, run at most once per key while held."""
        entry = self._entries.get(entry_key)
        if entry is None:
            entry = self._entries[entry_key] = compute()
            if len(self._entries) > self.bound:
                self._entries.popitem(last=False)
        else:
            self._entries.move_to_end(entry_key)
        return _fresh(entry)

    def pure(self, fn):
        """``fn`` memoized on the content of its positional arguments."""
        @wraps(fn)
        def memoized(*args):
            return self.recall((fn, key(args)), lambda: fn(*args))
        return memoized


#: A sweep builds at most a handful of datasets.
DATASETS = Memo(4)


def cached(build, rng: np.random.Generator, *params):
    """``build(rng, *params)``, built at most once per key while held; a
    hit restores the generator's post-build state, so every later draw
    from ``rng`` matches what a cold build would have left behind."""
    bit_generator = rng.bit_generator
    dataset, state = DATASETS.recall(
        (build, key(params), key(bit_generator.state)),
        lambda: (build(rng, *params), bit_generator.state))
    bit_generator.state = state
    return dataset
