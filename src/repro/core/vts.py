"""Vector timestamps and group logical clocks (Section V).

Each group ``G_i`` maintains a logical clock ``clk_i`` that advances when
an entry it proposed completes global Raft consensus. Every entry is
assigned one timestamp per group; the resulting vector timestamp (VTS)
determines the global execution order.

Unlike causal vector clocks, VTS comparison is *element-wise
lexicographic* (Section V-D): compare vts[0], then vts[1], ... and break
full ties by (seq, gid) — Lemma V.4's strict total order.
"""

from __future__ import annotations

from typing import List


class GroupClock:
    """Group ``G_i``'s logical clock ``clk_i`` (monotonically non-decreasing)."""

    __slots__ = ("gid", "value")

    def __init__(self, gid: int, value: int = 0) -> None:
        self.gid = gid
        self.value = value

    def read(self) -> int:
        return self.value

    def advance_to(self, value: int) -> None:
        """Move the clock forward; stale values are ignored (monotonicity)."""
        if value > self.value:
            self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"clk_{self.gid}={self.value}"


class VectorTimestamp:
    """An entry's VTS with per-element set/inferred bookkeeping.

    ``values[j]`` is group ``G_j``'s timestamp; ``is_set[j]`` is True when
    the value was actually assigned (replicated through ``G_j``'s Raft
    instance) and False when it is a lower-bound *inference* (Algorithm 2
    lines 6-7 and 13-15). Inferred values may only grow; set values are
    final.
    """

    __slots__ = ("values", "is_set")

    def __init__(self, n_groups: int) -> None:
        if n_groups < 1:
            raise ValueError("VTS needs at least one group")
        self.values: List[int] = [0] * n_groups
        self.is_set: List[bool] = [False] * n_groups

    @property
    def n_groups(self) -> int:
        return len(self.values)

    def assign(self, gid: int, timestamp: int) -> None:
        """Finalize element ``gid`` (a real, replicated assignment)."""
        if self.is_set[gid] and self.values[gid] != timestamp:
            raise ValueError(
                f"vts[{gid}] already set to {self.values[gid]}, "
                f"cannot reassign to {timestamp}"
            )
        if timestamp < self.values[gid]:
            raise ValueError(
                f"assigned timestamp {timestamp} below inferred lower bound "
                f"{self.values[gid]} for element {gid} (clock regression)"
            )
        self.values[gid] = timestamp
        self.is_set[gid] = True

    def infer(self, gid: int, lower_bound: int) -> None:
        """Raise the lower bound of an element that is not yet set."""
        if not self.is_set[gid]:
            self.values[gid] = max(self.values[gid], lower_bound)

    @property
    def complete(self) -> bool:
        """True when every element has been definitively assigned."""
        return all(self.is_set)

    def __repr__(self) -> str:
        parts = [
            f"{v}" if s else f"~{v}" for v, s in zip(self.values, self.is_set)
        ]
        return f"<{', '.join(parts)}>"
