"""FHE-as-a-service serving layer over the Alchemist timing model.

The paper evaluates single workloads; a deployed accelerator serves
*streams* of small requests from many users.  This package closes that
gap with a deterministic, replayable serving simulation:

* :mod:`repro.serve.traffic` — seeded open-loop workload generation
  (Poisson arrivals shaped by steady/diurnal/storm profiles) and the SLA
  class definitions;
* :mod:`repro.serve.admission` — bounded per-class queues with
  shed-or-degrade overload behavior;
* :mod:`repro.serve.batching` — cross-request slot batching (many small
  requests -> one ciphertext) with zero-exchange lint validation;
* :mod:`repro.serve.service` — the dispatch loop on
  :class:`~repro.sim.engine.EventDrivenSimulator` and the latency/SLA
  report;
* :mod:`repro.serve.functional` — the same ops on the real CKKS/BFV
  schemes, proving slot-batched responses bit-identical to unbatched;
* :mod:`repro.serve.report` — the ``BENCH_serving.json`` load sweep.
"""

from repro.serve.admission import (
    ADMISSION_MODES,
    AdmissionController,
    AdmissionDecision,
)
from repro.serve.batching import (
    DEFAULT_SLOTS,
    Batch,
    BatchingError,
    SlotBatcher,
    assert_zero_exchange,
    pbs_bucket,
)
from repro.serve.report import (
    DEFAULT_RATES,
    DEFAULT_REQUESTS,
    SERVING_SCHEMA,
    run_profile,
    run_serving,
)
from repro.serve.service import (
    BatchRecord,
    ClassStats,
    RequestOutcome,
    ServeReport,
    ServingSimulator,
    percentile,
)
from repro.serve.traffic import (
    PROFILES,
    SLA_BY_NAME,
    SLA_CLASSES,
    Request,
    SlaClass,
    generate_trace,
    offered_load_rps,
    trace_digest,
)

__all__ = [
    "ADMISSION_MODES",
    "AdmissionController",
    "AdmissionDecision",
    "Batch",
    "BatchRecord",
    "BatchingError",
    "ClassStats",
    "DEFAULT_RATES",
    "DEFAULT_REQUESTS",
    "DEFAULT_SLOTS",
    "PROFILES",
    "Request",
    "RequestOutcome",
    "SERVING_SCHEMA",
    "SLA_BY_NAME",
    "SLA_CLASSES",
    "ServeReport",
    "ServingSimulator",
    "SlaClass",
    "SlotBatcher",
    "assert_zero_exchange",
    "generate_trace",
    "offered_load_rps",
    "pbs_bucket",
    "percentile",
    "run_profile",
    "run_serving",
    "trace_digest",
]
