"""Every clustering test starts from an empty kernel memo, so that it runs
the canopy and mean-shift passes instead of recalling an earlier test's
(block-size patches and call counts see the pass itself)."""

from collections import OrderedDict

import pytest

from repro.ml.base import KERNELS


@pytest.fixture(autouse=True)
def cold_kernels(monkeypatch):
    monkeypatch.setattr(KERNELS, "_entries", OrderedDict())
