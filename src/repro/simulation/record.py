"""One record per platform epoch, read by the journal, metrics and resume.

:class:`~repro.simulation.platform.SCPlatform` builds exactly one
:class:`EpochRecord` per epoch (one arrival or wake-up plus the decision
point it triggered).  Three readers consume it:

* the write-ahead journal appends :meth:`EpochRecord.to_entry`;
* :meth:`SimulationMetrics.fold` accumulates it into the run's counters;
* :meth:`SCPlatform.resume` turns journal entries back into records
  (:meth:`EpochRecord.from_entry`) and feeds them through the same epoch
  body a live run uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(slots=True)
class EpochRecord:
    """What one epoch did.

    The journal entry (:meth:`to_entry`) is a JSON-serialisable dict with
    these keys, in this order — everything the epoch decided that a replay
    cannot re-derive on its own:

    ``seq``
        Zero-based epoch number (dense, strictly increasing).
    ``src``
        What drove the epoch: ``"a"`` (the next arrival event) or ``"w"``
        (the earliest wake-up).
    ``now``
        Simulated time of the epoch.  Python float repr round-trips
        exactly through JSON, so replay can require bit-equality.
    ``planned`` / ``counted`` / ``cpu``
        Whether a plan was computed, whether it counted towards the
        CPU-time metric (real tasks were pending), and its measured
        wall-clock cost: replay re-records the *original* measurement.
    ``rung`` / ``cls`` / ``repairs``
        The degradation-ladder rung that served the epoch, its latency
        class (see :data:`~repro.simulation.metrics.EPOCH_CLASSES`) and
        the invariant repairs the planner performed.
    ``dispatches`` / ``repositions``
        The executed ``[worker_id, task_id]`` dispatches and
        ``[worker_id, x, y, arrival]`` repositioning legs — the *outputs*
        of the planning call, which is what makes replay independent of
        planner wall-clock behaviour.

    ``rejected`` / ``duplicates`` / ``expired`` (malformed events dropped,
    duplicate deliveries ignored, tasks expired) are not journaled: a
    replayed epoch ingests the same event and advances the same fleet, so
    it counts them again.
    """

    seq: int
    src: str
    now: float
    rejected: int = 0
    duplicates: int = 0
    expired: int = 0
    planned: bool = False
    counted: bool = False
    cpu: float = 0.0
    rung: str = "full"
    cls: str = "full"
    repairs: int = 0
    dispatches: List[Tuple[int, int]] = field(default_factory=list)
    repositions: List[Tuple[int, float, float, float]] = field(default_factory=list)

    def to_entry(self) -> Dict[str, object]:
        """The journal entry: same keys and values for every journal."""
        # Runs once per journaled epoch, and most epochs dispatch and
        # reposition nothing: an empty list needs no comprehension.
        dispatches, repositions = self.dispatches, self.repositions
        return {
            "seq": self.seq,
            "src": self.src,
            "now": self.now,
            "planned": self.planned,
            "counted": self.counted,
            "cpu": self.cpu,
            "rung": self.rung,
            "cls": self.cls,
            "repairs": self.repairs,
            "dispatches": [list(item) for item in dispatches] if dispatches else [],
            "repositions": [list(item) for item in repositions] if repositions else [],
        }

    @staticmethod
    def from_entry(entry: object) -> Optional["EpochRecord"]:
        """The record a journal entry describes, or None if it is malformed.

        Every type is checked before anything is iterated, so a parseable
        but damaged entry (a missing key, a number where a list belongs, a
        list where the dict belongs) is refused instead of raising.
        Entries written before the latency class existed read as
        ``"full"``.
        """
        if not isinstance(entry, dict):
            return None
        try:
            seq, src, now = entry["seq"], entry["src"], entry["now"]
            planned, counted, cpu = entry["planned"], entry["counted"], entry["cpu"]
            rung, repairs = entry["rung"], entry["repairs"]
            dispatches, repositions = entry["dispatches"], entry["repositions"]
        except KeyError:
            return None
        epoch_cls = entry.get("cls", "full")
        if not (
            _is_int(seq)
            and src in ("a", "w")
            and _is_number(now)
            and isinstance(planned, bool)
            and isinstance(counted, bool)
            and _is_number(cpu)
            and isinstance(rung, str)
            and isinstance(epoch_cls, str)
            and _is_int(repairs)
            and isinstance(dispatches, list)
            and isinstance(repositions, list)
            and all(
                isinstance(item, list) and len(item) == 2 and all(map(_is_int, item))
                for item in dispatches
            )
            and all(
                isinstance(item, list)
                and len(item) == 4
                and _is_int(item[0])
                and all(map(_is_number, item[1:]))
                for item in repositions
            )
        ):
            return None
        return EpochRecord(
            seq=seq,
            src=src,
            now=now,
            planned=planned,
            counted=counted,
            cpu=cpu,
            rung=rung,
            cls=epoch_cls,
            repairs=repairs,
            dispatches=[tuple(item) for item in dispatches],
            repositions=[tuple(item) for item in repositions],
        )
