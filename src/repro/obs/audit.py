"""Structured decision audit log: *why* did the system do that?

Metrics count outcomes; the audit log keeps the inputs that produced
them.  Every consequential decision -- a governor re-plan, an
admission shed, a plan-cache miss, a device quarantine -- records a
:class:`DecisionRecord` with the decision name and the inputs it was
made from (drift vs threshold, predicted vs measured energy, shed
reason, queue depth).  Reports and the serve ``stats`` endpoint can
then answer "why did device 7 re-plan in epoch 3" without re-running
anything.

The log is process-wide, always on (recording is a deque append under
a lock -- far off any hot path's critical cost), and bounded: beyond
``capacity`` the oldest records fall off and :attr:`DecisionLog.dropped`
counts them, so a week-long soak cannot eat the heap.  The per-decision
tallies of :meth:`DecisionLog.counts` are kept apart from the ring and
cover every record, dropped ones included.

Records are ordered by a monotone ``seq`` assigned under the lock, so
an audit dump is deterministic for deterministic workloads; wall time
is deliberately *not* recorded (it would poison byte-stable report
digests) -- correlate with the tracer's spans via the correlation ID
when timing matters.
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .tracing import current_correlation


@dataclass
class DecisionRecord:
    """One audited decision.

    Attributes:
        seq: monotone order of recording (process-wide).
        kind: the decision site, dotted like span names
            (``governor.epoch``, ``serve.admission``, ``serve.cache``).
        decision: what was decided (``replan``, ``hold``, ``shed``,
            ``hit``, ``miss``, ``quarantine``, ...).
        correlation: the serve correlation ID in effect, if any.
        inputs: the values the decision was made from.
    """

    seq: int
    kind: str
    decision: str
    correlation: Optional[str] = None
    inputs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "kind": self.kind,
            "decision": self.decision,
            "correlation": self.correlation,
            "inputs": dict(self.inputs),
        }


class DecisionLog:
    """Bounded, thread-safe ring of :class:`DecisionRecord`."""

    def __init__(self, capacity: int = 4096):
        self.capacity = capacity
        self._records: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._next_seq = 0
        self._tally: Counter = Counter()
        self.dropped = 0

    def record(self, kind: str, decision: str, **inputs: Any) -> None:
        """Append one decision with its inputs (cheap; always safe to call)."""
        correlation = current_correlation()
        with self._lock:
            if len(self._records) >= self.capacity:
                self.dropped += 1
            self._tally[f"{kind}:{decision}"] += 1
            self._records.append(
                DecisionRecord(
                    seq=self._next_seq,
                    kind=kind,
                    decision=decision,
                    correlation=correlation,
                    inputs=inputs,
                )
            )
            self._next_seq += 1

    def query(
        self,
        kind: Optional[str] = None,
        decision: Optional[str] = None,
        correlation: Optional[str] = None,
    ) -> List[DecisionRecord]:
        """Records matching every given filter, oldest first."""
        with self._lock:
            records = list(self._records)
        return [
            r
            for r in records
            if (kind is None or r.kind == kind)
            and (decision is None or r.decision == decision)
            and (correlation is None or r.correlation == correlation)
        ]

    def to_dicts(
        self, kind: Optional[str] = None, decision: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        """JSON-safe dump of matching records."""
        return [r.to_dict() for r in self.query(kind, decision)]

    def counts(self) -> Dict[str, int]:
        """``{"kind:decision": n}`` over every record since :meth:`clear`.

        Kept apart from the ring, so records it dropped still count.
        """
        with self._lock:
            return dict(sorted(self._tally.items()))

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self._next_seq = 0
            self._tally.clear()
            self.dropped = 0


#: The process-wide decision log (always on; bounded).
_AUDIT = DecisionLog()


def get_audit_log() -> DecisionLog:
    """The process-wide decision log."""
    return _AUDIT


def set_audit_log(log: DecisionLog) -> DecisionLog:
    """Swap the default log (tests); returns the previous one."""
    global _AUDIT
    previous = _AUDIT
    _AUDIT = log
    return previous
