"""The span model: what one traced run looks like as a tree of intervals.

A :class:`Span` is a named interval of *simulated* time on a display
``track`` (e.g. ``g0/entries`` or ``N0.1/wan_up``), with optional parent
and structured ``args``. Spans are plain data — the
:class:`~repro.obs.tracer.Tracer` builds them from bus events after a
run, and the exporters (:mod:`repro.obs.export`) serialise them.

Span categories used by the tracer:

* ``entry`` — the root span of one log entry, client batch to execution;
* ``stage`` — a lifecycle segment under an entry root (``batching``,
  ``local_consensus``, ``dissemination``, ``replicate->gN``,
  ``global_consensus``, ``ordering_execution``);
* ``message`` — one NIC transmission (queue + serialization) of a
  unicast message, from :attr:`repro.sim.network.Network.transmit_hook`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

#: Stage span names, in lifecycle order. ``replicate->gN`` children hang
#: under ``dissemination`` and are not listed here.
STAGE_NAMES = (
    "batching",
    "local_consensus",
    "dissemination",
    "global_consensus",
    "ordering_execution",
)


@dataclass
class Span:
    """One named interval of simulated time."""

    span_id: int
    name: str
    cat: str  # "entry" | "stage" | "message"
    start: float
    end: float
    track: str
    parent_id: Optional[int] = None
    args: Dict[str, Any] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def child(
        self,
        span_id: int,
        name: str,
        cat: str,
        start: float,
        end: float,
        track: Optional[str] = None,
        **args: Any,
    ) -> "Span":
        """Create, attach, and return a child span."""
        span = Span(
            span_id=span_id,
            name=name,
            cat=cat,
            start=start,
            end=end,
            track=track if track is not None else self.track,
            parent_id=self.span_id,
            args=args,
        )
        self.children.append(span)
        return span

    def walk(self) -> Iterable["Span"]:
        """This span and every descendant, depth-first, children in order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_jsonable(self) -> Dict[str, Any]:
        """Flat JSON form (children referenced by ``parent_id``, not nested)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "cat": self.cat,
            "track": self.track,
            "start": self.start,
            "end": self.end,
            "args": self.args,
        }


def flatten(roots: Iterable[Span]) -> List[Span]:
    """Every span in a forest, depth-first, in deterministic order."""
    out: List[Span] = []
    for root in roots:
        out.extend(root.walk())
    return out
