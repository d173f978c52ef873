"""Deterministic named random-number streams.

Every source of randomness in an experiment (workload keys, transaction
arrival jitter, Byzantine target selection, election timeouts, ...) draws
from its own named stream derived from a single experiment seed. Adding a
new consumer of randomness therefore never perturbs existing streams, and
reruns with the same seed are bit-identical.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


class RngRegistry:
    """A factory of independent ``random.Random`` streams keyed by name.

    >>> rngs = RngRegistry(seed=42)
    >>> a = rngs.stream("ycsb.keys")
    >>> b = rngs.stream("raft.timeouts")
    >>> a is rngs.stream("ycsb.keys")   # streams are memoised
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it deterministically."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        digest = hashlib.sha256(f"{self.seed}:{name}".encode("utf-8")).digest()
        stream = random.Random(int.from_bytes(digest[:8], "big"))
        self._streams[name] = stream
        return stream
