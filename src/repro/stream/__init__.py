"""repro.stream — open-arrival streaming simulation with bounded memory.

The closed-instance stack materializes every job up front and keeps a
record per job and per slot; this package is the open-loop counterpart
for the "millions of users, heavy traffic" regime:

* :mod:`repro.stream.arrivals` — lazy arrival processes (Poisson,
  bursty/MMPP, diurnal) that generate jobs slot by slot from a
  checkpointable RNG state, plus :func:`materialize` which freezes a
  finite prefix into a closed :class:`~repro.sim.instance.Instance`
  drawing *exactly* the same randomness — the bridge the
  ``streaming-equivalence`` verification corpus rides on;
* :mod:`repro.stream.engine` — :func:`stream_simulate`, a sliding-window
  engine: completed/expired jobs are evicted, telemetry is held in
  reservoir samples and quantile sketches, and a hard live-set budget
  with admission-control policies (``shed-newest``,
  ``shed-loosest-deadline``, ``block``) keeps memory flat at any
  offered load;
* :mod:`repro.stream.checkpoint` — atomic, self-validating streaming
  checkpoints with truncated-tail healing, so a SIGKILL'd run resumes
  mid-stream bit-identically;
* :mod:`repro.stream.shard` — the sharded runner: partition the seed
  population across processes and merge channel statistics;
* :mod:`repro.stream.report` — the sustained-load report (throughput
  ceiling, deadline-miss rate, latency percentiles vs offered load ρ).

See docs/STREAMING.md for the memory model and the checkpoint format.
"""

from repro.stream.arrivals import (
    ArrivalProcess,
    BoundArrivals,
    BurstyProcess,
    DiurnalProcess,
    PoissonProcess,
    materialize,
)
from repro.stream.checkpoint import (
    CheckpointConfig,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.stream.engine import (
    POLICIES,
    StreamBudget,
    StreamResult,
    stream_simulate,
)
from repro.stream.report import SustainedLoadReport
from repro.stream.shard import StreamShardSpec, run_stream_shards

__all__ = [
    "POLICIES",
    "ArrivalProcess",
    "BoundArrivals",
    "BurstyProcess",
    "CheckpointConfig",
    "CheckpointError",
    "DiurnalProcess",
    "PoissonProcess",
    "StreamBudget",
    "StreamResult",
    "StreamShardSpec",
    "SustainedLoadReport",
    "load_checkpoint",
    "materialize",
    "run_stream_shards",
    "save_checkpoint",
    "stream_simulate",
]
