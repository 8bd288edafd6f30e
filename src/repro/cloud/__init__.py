"""The cloud service layer (the paper's future work, implemented).

"Future work will include integrating the vHadoop platform to open source
cloud computing system to provide scalable on-demand computation service
for processing data-intensive (or big-data) applications with parallel
machine learning algorithms."  (paper, Section VI)

One front door: open-loop traffic (:mod:`repro.cloud.traffic`) from a
tenant fleet (:mod:`repro.cloud.tenants`) flows through admission control
(:mod:`repro.cloud.admission`) into a
:class:`~repro.cloud.controller.ServiceController`, with SLO alerting and
alert-driven elastic autoscaling (:mod:`repro.cloud.autoscaler`) — the
platform's closed monitor → decide → actuate loop.  Behind it sit three
backends of one contract, three fidelities:

* :class:`~repro.cloud.controller.SlotModelBackend` — a calibrated
  queueing surrogate for million-submission runs;
* :class:`~repro.cloud.service.SharedClusterBackend` — real jobs on one
  warm cluster, interleaved at slot granularity by a scheduler;
* :class:`~repro.cloud.service.PerJobClusterBackend` — EMR-style
  cluster-per-job: provision, run, tear down.

The two full-fidelity backends also serve a single request directly
(``backend.serve(request)``).
"""

from repro.cloud.adversaries import (ADVERSARY_KINDS, AdversarySpec,
                                     BatchSpamTraffic, HotKeyFloodTraffic,
                                     StragglerSkewTraffic,
                                     make_adversary_traffic)
from repro.cloud.admission import (ADMIT, REJECT_OVERLOAD, REJECT_QUOTA,
                                   AdmissionController, AdmissionDecision)
from repro.cloud.autoscaler import (AlertCursor, ElasticAutoscaler,
                                    ScalingAction)
from repro.cloud.controller import (CostModel, ServiceController,
                                    ServiceReport, SlotModelBackend)
from repro.cloud.service import (PerJobClusterBackend, ServiceOutcome,
                                 ServiceRequest, SharedClusterBackend)
from repro.cloud.tenants import (LatencyHistogram, TenantRegistry,
                                 TenantSpec, TenantStats)
from repro.cloud.traffic import (Arrival, BurstTraffic, DiurnalTraffic,
                                 PoissonTraffic, trace_digest)

__all__ = [
    "ADMIT", "ADVERSARY_KINDS", "REJECT_OVERLOAD", "REJECT_QUOTA",
    "AdmissionController", "AdmissionDecision", "AdversarySpec",
    "AlertCursor", "Arrival", "BatchSpamTraffic", "BurstTraffic",
    "CostModel", "HotKeyFloodTraffic", "StragglerSkewTraffic",
    "make_adversary_traffic",
    "DiurnalTraffic", "ElasticAutoscaler", "LatencyHistogram",
    "PerJobClusterBackend", "PoissonTraffic", "ScalingAction",
    "ServiceController", "ServiceOutcome", "ServiceReport",
    "ServiceRequest", "SharedClusterBackend",
    "SlotModelBackend", "TenantRegistry", "TenantSpec", "TenantStats",
    "trace_digest",
]
