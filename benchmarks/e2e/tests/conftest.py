"""Harness self-tests: ``python -m pytest benchmarks/e2e/tests``.

Not part of the tier-1 ``testpaths``; they exercise the benchmark's own
arithmetic, schema and verdict logic, plus smoke-sized workloads.
"""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parent.parent
for path in (E2E.parent.parent / "src", E2E):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
