"""In-memory key-value state store.

Matches the paper's "in-memory hash tables" database: a flat string-keyed
store with table namespacing (``table/key``), batch-atomic writes (what
Aria's commit phase applies), and a state digest that determinism
checks fingerprint a store with.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, Mapping, Optional, Tuple

from repro.crypto.hashing import digest


def table_key(table: str, key: Any) -> str:
    """Canonical composite key for a row in a named table."""
    return f"{table}/{key}"


class KVStore:
    """A hash-table database with batch-atomic application of writes.

    Reads during a batch see the snapshot taken before any of the batch's
    writes, which is exactly Aria's read semantics — the executor reads
    directly from the store throughout the batch and applies buffered
    writes only at commit time, so no copy-on-write machinery is needed.
    """

    def __init__(self) -> None:
        self._data: Dict[str, Any] = {}
        self.writes_applied = 0
        self.batches_applied = 0

    def get(self, key: str, default: Any = None) -> Any:
        return self._data.get(key, default)

    def read_row(self, table: str, key: Any, default: Any = None) -> Any:
        return self._data.get(table_key(table, key), default)

    def apply_writes(self, writes: Mapping[str, Any]) -> None:
        """Atomically install a committed batch's write set."""
        self._data.update(writes)
        self.writes_applied += len(writes)
        self.batches_applied += 1

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def scan_prefix(self, prefix: str) -> Iterator[Tuple[str, Any]]:
        """Iterate rows whose key starts with ``prefix`` (table scans)."""
        for key, value in self._data.items():
            if key.startswith(prefix):
                yield key, value

    def state_digest(self, sample: Optional[Iterable[str]] = None) -> bytes:
        """Digest of (a sample of) the state, for comparing stores.

        Hashing the full store would dominate runtime; by default a digest
        over store size and write counters is used, with ``sample`` keys
        mixed in when byte-level comparison is wanted.
        """
        parts = [f"{len(self._data)}:{self.writes_applied}"]
        if sample is not None:
            for key in sorted(sample):
                parts.append(f"{key}={self._data.get(key)!r}")
        return digest("|".join(parts))
