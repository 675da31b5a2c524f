"""Sharded parallel query execution over partitioned collections.

``repro.shard`` scales the single-device query layer out to N simulated
persistent-memory devices:

* :class:`~repro.shard.collection.ShardSet` -- N independent devices,
  each behind its own persistence backend;
* :class:`~repro.shard.collection.ShardedCollection` -- one logical
  collection hash- or range-partitioned across a shard set
  (:mod:`repro.shard.partition`), shard ``i`` being an ordinary
  :class:`~repro.storage.collection.PersistentCollection` on device ``i``;
* :class:`~repro.shard.planner.ShardedPlanner` -- decomposes a logical
  query into per-shard plan fragments (partition-wise joins and
  shard-local aggregation when the partitioning keys line up, priced
  repartition exchanges otherwise), each fragment planned by the
  Section 2 cost models under a ``1/N`` share of the DRAM budget;
* :class:`~repro.shard.executor.ShardedQueryExecutor` -- runs fragments
  concurrently (one worker per device) under parent/child bufferpool
  accounting and reports per-shard estimated vs. actual I/O plus the
  critical-path (max-over-shards) cost.
"""

from repro.shard.collection import ShardedCollection, ShardSet
from repro.shard.executor import ShardedQueryExecutor, ShardedQueryResult
from repro.shard.partition import (
    HashPartitioner,
    Partitioner,
    RangePartitioner,
    multiplicative_hash,
)
from repro.shard.planner import (
    ExchangeStep,
    FragmentStep,
    ShardedPhysicalPlan,
    ShardedPlanner,
    find_sharded_collections,
)

__all__ = [
    "ShardSet",
    "ShardedCollection",
    "Partitioner",
    "HashPartitioner",
    "RangePartitioner",
    "multiplicative_hash",
    "ShardedPlanner",
    "ShardedPhysicalPlan",
    "FragmentStep",
    "ExchangeStep",
    "find_sharded_collections",
    "ShardedQueryExecutor",
    "ShardedQueryResult",
]
