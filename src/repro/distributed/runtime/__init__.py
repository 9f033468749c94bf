"""The sharded, concurrent distributed-validation runtime.

The serial :class:`~repro.distributed.network.DistributedDocument`
simulation validates peers one at a time on the calling thread.  This
package turns it into a runtime:

* :mod:`~repro.distributed.runtime.sharding` -- deterministic assignment of
  peers to shards (the unit of concurrency);
* :mod:`~repro.distributed.runtime.scheduler` -- the thread-pool scheduler
  running shard tasks with one compilation engine per shard;
* :mod:`~repro.distributed.runtime.runtime` -- :class:`ValidationRuntime`:
  parallel local validation plus content-addressed incremental
  revalidation (only peers whose document fingerprint changed revalidate;
  the global verdict is re-derived from cached acknowledgements);
* :mod:`~repro.distributed.runtime.driver` -- :class:`WorkloadDriver`:
  replay synthetic publication workloads through the serial, runtime and
  centralized strategies and compare their cost ledgers.
"""

from repro.distributed.runtime.driver import (
    STRATEGIES,
    StrategyOutcome,
    WorkloadDriver,
    WorkloadReport,
)
from repro.distributed.runtime.runtime import (
    RuntimeReport,
    RuntimeStats,
    StreamIngest,
    PublishReport,
    ValidationRuntime,
    merge_states,
    state_digest_of,
)
from repro.distributed.runtime.scheduler import ShardScheduler
from repro.distributed.runtime.sharding import ShardMap

__all__ = [
    "STRATEGIES",
    "RuntimeReport",
    "RuntimeStats",
    "ShardMap",
    "ShardScheduler",
    "StrategyOutcome",
    "StreamIngest",
    "PublishReport",
    "ValidationRuntime",
    "WorkloadDriver",
    "WorkloadReport",
    "merge_states",
    "state_digest_of",
]
