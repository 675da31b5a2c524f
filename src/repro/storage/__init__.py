"""Storage layer: records, persistent collections, bufferpool and runs."""

from repro.storage.schema import Schema, WISCONSIN_SCHEMA
from repro.storage.collection import (
    AppendBuffer,
    CollectionStatus,
    PersistentCollection,
)
from repro.storage.bufferpool import Bufferpool, MemoryBudget
from repro.storage.runs import RunSet, merge_runs

__all__ = [
    "Schema",
    "WISCONSIN_SCHEMA",
    "AppendBuffer",
    "CollectionStatus",
    "PersistentCollection",
    "Bufferpool",
    "MemoryBudget",
    "RunSet",
    "merge_runs",
]
