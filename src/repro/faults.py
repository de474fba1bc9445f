"""Deterministic fault injection for chaos-testing the serving stack.

Production RWR serving has to survive three broad failure families: worker
processes dying mid-query (OOM kills), artifact bytes rotting on disk, and
a flaky network between the gateway and its backends.  Testing the
recovery paths with *random* chaos makes CI flaky; this module makes every
fault an explicit, serializable **plan** instead:

- :class:`WorkerCrash` — a serving worker calls ``os._exit`` while handling
  its N-th query batch (after computing, before replying), mimicking an
  OOM kill mid-``scatter``;
- :class:`WorkerHang` — a worker ignores ``SIGTERM``, forcing
  :meth:`repro.serve.WorkerPool.stop` through its terminate → kill
  escalation;
- :class:`QueueDelay` — a worker sleeps before replying, simulating a slow
  or backed-up queue;
- :class:`ArtifactByteFlip` — one byte of an artifact array file is XOR'd,
  which the manifest-v4 checksums must catch on load;
- :class:`ConnectionDrop` / :class:`SlowLink` / :class:`FrameCorrupt` —
  network faults on a named wire endpoint (a gateway backend, usually):
  the transport raises ``ConnectionResetError`` mid-conversation, sleeps
  before each frame, or flips a byte so the peer sees a
  ``ProtocolError``.  These drive the gateway's circuit breakers,
  hedging and degradation ladder in the chaos suite.

A :class:`FaultPlan` groups the specs and round-trips through plain dicts
and JSON, so it can cross the process boundary into worker processes and
be checked into CI fixtures.  Faults fire through a process-local injector
(:func:`install` / :func:`clear` / :func:`active`); when no plan is
installed every query function returns its "no fault" answer on a single
attribute read, so the production hot path stays unaffected.  The solver
itself carries no hooks: the fallback-chain tests force GMRES stagnation
by wrapping the GMRES engines in the test suite.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.exceptions import InvalidParameterError

__all__ = [
    "ArtifactByteFlip",
    "ConnectionDrop",
    "FaultPlan",
    "FrameCorrupt",
    "QueueDelay",
    "SlowLink",
    "WireActions",
    "WorkerCrash",
    "WorkerHang",
    "active",
    "active_plan",
    "apply_byte_flips",
    "clear",
    "crash_for",
    "delay_for",
    "hang_for",
    "install",
    "load_plan",
    "wire_actions",
]


@dataclass(frozen=True)
class WorkerCrash:
    """Kill worker ``worker`` while it handles query batch ``at_batch``.

    The worker computes the answer, then ``os._exit(exitcode)``\\ s *before*
    replying — exactly the window an OOM kill hits.  ``at_batch`` counts the
    worker's own query batches from 0.  The default exit code mirrors a
    SIGKILL'd process (128 + 9).
    """

    worker: int
    at_batch: int = 0
    exitcode: int = 137


@dataclass(frozen=True)
class WorkerHang:
    """Make worker ``worker`` ignore SIGTERM, so only SIGKILL reaps it."""

    worker: int


@dataclass(frozen=True)
class QueueDelay:
    """Sleep ``seconds`` before worker ``worker`` replies to a query batch.

    ``at_batch=None`` delays every batch; otherwise only the given 0-based
    batch index is delayed.
    """

    worker: int
    seconds: float
    at_batch: Optional[int] = None


@dataclass(frozen=True)
class ArtifactByteFlip:
    """XOR one byte of ``arrays/<array>.npy`` inside an artifact directory.

    ``offset`` indexes into the file with Python semantics (negative counts
    from the end); the default flips the last byte, which lands in the
    array payload rather than the ``.npy`` header.
    """

    array: str = "S.data"
    offset: int = -1


@dataclass(frozen=True)
class ConnectionDrop:
    """Drop ``count`` frames on endpoint ``endpoint`` as reset connections.

    Frame events (sends and receives both count) on the endpoint are
    numbered from 0; once ``after_frames`` events have completed, the next
    ``count`` events raise ``ConnectionResetError`` instead of touching
    the socket.  ``endpoint="*"`` matches every labelled endpoint.  The
    budget is finite, so the link *recovers* — exactly what a breaker's
    half-open probe needs to observe.
    """

    endpoint: str = "*"
    after_frames: int = 0
    count: int = 1


@dataclass(frozen=True)
class SlowLink:
    """Sleep ``seconds`` before every frame on endpoint ``endpoint``.

    Models a congested or lossy link: the frame still goes through,
    late.  Hedged sends should beat it; deadline budgets should absorb
    at most ``seconds`` of it per hop.
    """

    endpoint: str = "*"
    seconds: float = 0.01


@dataclass(frozen=True)
class FrameCorrupt:
    """Corrupt ``count`` frames on ``endpoint`` starting at ``at_frame``.

    The transport flips the frame's version byte before sending, so the
    peer fails with a ``ProtocolError`` — a deterministic stand-in for
    on-the-wire corruption that must never silently flip a score bit.
    """

    endpoint: str = "*"
    at_frame: int = 0
    count: int = 1


_SPEC_TYPES = {
    "worker_crashes": WorkerCrash,
    "worker_hangs": WorkerHang,
    "queue_delays": QueueDelay,
    "byte_flips": ArtifactByteFlip,
    "connection_drops": ConnectionDrop,
    "slow_links": SlowLink,
    "frame_corrupts": FrameCorrupt,
}


@dataclass(frozen=True)
class FaultPlan:
    """An explicit, reproducible set of faults to inject.

    Plans are immutable; derive narrower plans with :meth:`without_worker`
    (used when a crashed worker is respawned, so the replacement does not
    replay the crash that killed its predecessor).
    """

    worker_crashes: Tuple[WorkerCrash, ...] = ()
    worker_hangs: Tuple[WorkerHang, ...] = ()
    queue_delays: Tuple[QueueDelay, ...] = ()
    byte_flips: Tuple[ArtifactByteFlip, ...] = ()
    connection_drops: Tuple[ConnectionDrop, ...] = ()
    slow_links: Tuple[SlowLink, ...] = ()
    frame_corrupts: Tuple[FrameCorrupt, ...] = ()

    def __post_init__(self):
        for name in _SPEC_TYPES:
            object.__setattr__(self, name, tuple(getattr(self, name)))

    # ------------------------------------------------------------------
    # Serialization (crosses the process boundary and CI)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, List[dict]]:
        return {
            name: [asdict(spec) for spec in getattr(self, name)]
            for name in _SPEC_TYPES
            if getattr(self, name)
        }

    @classmethod
    def from_dict(cls, data: Dict[str, List[dict]]) -> "FaultPlan":
        unknown = set(data) - set(_SPEC_TYPES)
        if unknown:
            raise InvalidParameterError(
                f"unknown fault plan sections: {sorted(unknown)} "
                f"(expected a subset of {sorted(_SPEC_TYPES)})"
            )
        kwargs = {}
        for name, spec_cls in _SPEC_TYPES.items():
            try:
                kwargs[name] = tuple(spec_cls(**entry) for entry in data.get(name, ()))
            except TypeError as exc:
                raise InvalidParameterError(
                    f"bad {name} entry in fault plan: {exc}"
                ) from exc
        return cls(**kwargs)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    def without_worker(self, worker: int) -> "FaultPlan":
        """A copy with every crash/hang/delay targeting ``worker`` removed.

        Respawned workers receive this narrowed plan so a one-shot crash
        directive does not loop forever.
        """
        return FaultPlan(
            worker_crashes=tuple(
                s for s in self.worker_crashes if s.worker != worker
            ),
            worker_hangs=tuple(s for s in self.worker_hangs if s.worker != worker),
            queue_delays=tuple(s for s in self.queue_delays if s.worker != worker),
            byte_flips=self.byte_flips,
            connection_drops=self.connection_drops,
            slow_links=self.slow_links,
            frame_corrupts=self.frame_corrupts,
        )

    @property
    def empty(self) -> bool:
        return not any(getattr(self, name) for name in _SPEC_TYPES)


def load_plan(path) -> FaultPlan:
    """Read a :class:`FaultPlan` from a JSON file."""
    return FaultPlan.from_json(Path(path).read_text())


# ----------------------------------------------------------------------
# Process-local injector
# ----------------------------------------------------------------------
class _Injector:
    """Mutable fault state derived from a plan (budgets count down)."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        # Network faults: per-endpoint frame-event counters plus one
        # remaining-budget cell per drop/corrupt spec (SlowLink has no
        # budget; it applies to every matching frame).
        self._wire_counts: Dict[str, int] = {}
        self._drop_budgets = [max(int(s.count), 0) for s in plan.connection_drops]
        self._corrupt_budgets = [max(int(s.count), 0) for s in plan.frame_corrupts]
        self._has_wire_faults = bool(
            plan.connection_drops or plan.slow_links or plan.frame_corrupts
        )

    def wire_event(self, endpoint: str) -> Optional["WireActions"]:
        if not self._has_wire_faults:
            return None
        with self._lock:
            index = self._wire_counts.get(endpoint, 0)
            self._wire_counts[endpoint] = index + 1
            delay = sum(
                s.seconds
                for s in self.plan.slow_links
                if s.endpoint in ("*", endpoint)
            )
            drop = False
            for i, spec in enumerate(self.plan.connection_drops):
                if (
                    spec.endpoint in ("*", endpoint)
                    and index >= spec.after_frames
                    and self._drop_budgets[i] > 0
                ):
                    self._drop_budgets[i] -= 1
                    drop = True
                    break
            corrupt = False
            if not drop:
                for i, spec in enumerate(self.plan.frame_corrupts):
                    if (
                        spec.endpoint in ("*", endpoint)
                        and index >= spec.at_frame
                        and self._corrupt_budgets[i] > 0
                    ):
                        self._corrupt_budgets[i] -= 1
                        corrupt = True
                        break
        if not delay and not drop and not corrupt:
            return None
        return WireActions(delay=delay, drop=drop, corrupt=corrupt)


_ACTIVE: Optional[_Injector] = None


def install(plan: FaultPlan) -> None:
    """Install ``plan`` as this process's active fault plan."""
    global _ACTIVE
    _ACTIVE = _Injector(plan)


def clear() -> None:
    """Remove the active fault plan (no faults fire afterwards)."""
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def active(plan: FaultPlan):
    """Scoped :func:`install`: the previous plan is restored on exit."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = _Injector(plan)
    try:
        yield plan
    finally:
        _ACTIVE = previous


def active_plan() -> Optional[FaultPlan]:
    """The currently installed plan, or ``None``."""
    return _ACTIVE.plan if _ACTIVE is not None else None


# ----------------------------------------------------------------------
# Injection-point queries (all O(plan size); no-ops without a plan)
# ----------------------------------------------------------------------
def crash_for(worker: int, batch_index: int) -> Optional[WorkerCrash]:
    """The crash directive for ``worker`` at query batch ``batch_index``."""
    if _ACTIVE is None:
        return None
    for spec in _ACTIVE.plan.worker_crashes:
        if spec.worker == worker and spec.at_batch == batch_index:
            return spec
    return None


def hang_for(worker: int) -> bool:
    """Whether ``worker`` should ignore SIGTERM."""
    if _ACTIVE is None:
        return False
    return any(spec.worker == worker for spec in _ACTIVE.plan.worker_hangs)


def delay_for(worker: int, batch_index: int) -> float:
    """Total injected reply delay (seconds) for this worker/batch."""
    if _ACTIVE is None:
        return 0.0
    return sum(
        spec.seconds
        for spec in _ACTIVE.plan.queue_delays
        if spec.worker == worker
        and (spec.at_batch is None or spec.at_batch == batch_index)
    )


@dataclass(frozen=True)
class WireActions:
    """What the wire transport must do for one frame event on an endpoint."""

    delay: float = 0.0
    drop: bool = False
    corrupt: bool = False


def wire_actions(endpoint: str) -> Optional[WireActions]:
    """Network-fault actions for the next frame event on ``endpoint``.

    Counts one frame event against the endpoint (sends and receives
    both count) and returns what the transport should inject, or
    ``None`` when nothing applies.  Without an active plan this is a
    single attribute read.
    """
    if _ACTIVE is None:
        return None
    return _ACTIVE.wire_event(str(endpoint))


# ----------------------------------------------------------------------
# Artifact corruption helper (used by chaos tests and drills)
# ----------------------------------------------------------------------
def apply_byte_flips(directory, plan: Optional[FaultPlan] = None) -> List[str]:
    """Apply a plan's byte flips to an artifact directory; returns the files hit.

    Flips are XOR 0xFF, so applying the same plan twice restores the
    original bytes.  Raises :class:`InvalidParameterError` when a targeted
    array file does not exist — a typo'd plan should fail loudly, not
    silently corrupt nothing.
    """
    plan = plan if plan is not None else active_plan()
    if plan is None:
        return []
    flipped = []
    for spec in plan.byte_flips:
        target = Path(directory) / "arrays" / f"{spec.array}.npy"
        if not target.is_file():
            raise InvalidParameterError(
                f"byte flip target {target} does not exist"
            )
        data = bytearray(target.read_bytes())
        try:
            data[spec.offset] ^= 0xFF
        except IndexError:
            raise InvalidParameterError(
                f"byte flip offset {spec.offset} out of range for {target} "
                f"({len(data)} bytes)"
            )
        target.write_bytes(bytes(data))
        flipped.append(str(target))
    return flipped
