"""nmon Monitor: per-VM resource monitoring plus the analyser.

The paper extends the single-node ``nmon`` Linux monitor to the distributed
vHadoop platform: every master/worker VM is sampled in parallel and the
``nmon analyser`` turns the samples into summaries that reveal the
performance bottleneck (their conclusion: network I/O and NFS disk I/O).
"""

from repro.monitor.nmon import NmonMonitor
from repro.monitor.analyser import (BottleneckReport, NmonAnalyser,
                                    SeriesSummary)

__all__ = ["BottleneckReport", "NmonAnalyser", "NmonMonitor",
           "SeriesSummary"]
