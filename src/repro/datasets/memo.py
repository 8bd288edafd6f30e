"""The per-process dataset memo.

A generated dataset is a pure function of its build function, its
parameters and the state of the ``numpy.random.Generator`` it draws from,
so the memo keys on exactly those three: ``(build, parameters,
rng.bit_generator.state)``.
Each entry stores the dataset and the generator's state after the build.

* A hit restores that post-call state, so every later draw from ``rng``
  matches what a cold build would have left behind.
* Every call returns a fresh container (a new list, new arrays): a caller
  that mutates its copy cannot change the next hit.
* At most :data:`MAX_ENTRIES` datasets are held; the least recently used
  goes first.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

MAX_ENTRIES = 4

_entries: OrderedDict = OrderedDict()


def _key(value):
    """A hashable stand-in for a parameter or bit-generator state that
    equals another only when the two are equal and of the same types."""
    if isinstance(value, dict):
        return tuple((k, _key(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return type(value), tuple(_key(v) for v in value)
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return type(value), value


def _fresh(value):
    if isinstance(value, tuple):
        return tuple(_fresh(v) for v in value)
    if isinstance(value, list):
        return list(value)
    if isinstance(value, np.ndarray):
        return value.copy()
    return value


def cached(build, rng: np.random.Generator, *params):
    """``build(rng, *params)``, built at most once per key while held."""
    bit_generator = rng.bit_generator
    key = (build, _key(params), _key(bit_generator.state))
    entry = _entries.get(key)
    if entry is None:
        entry = _entries[key] = (build(rng, *params), bit_generator.state)
        if len(_entries) > MAX_ENTRIES:
            _entries.popitem(last=False)
    else:
        _entries.move_to_end(key)
        bit_generator.state = entry[1]
    return _fresh(entry[0])
