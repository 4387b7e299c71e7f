"""Seeded fault plans.

A :class:`FaultPlan` is a deterministic schedule of fault events derived
from ``(seed, profile, intensity)``: the same triple always yields the
same schedule, so any soak failure is reproducible from its printed seed
(the FoundationDB-simulation / Jepsen-nemesis property the chaos layer
exists for).

Events are addressed by *site* — a named injection point threaded through
the production code (``chaos_hit(SITE_...)``) — and fire on an exact hit
count at that site, so a plan is independent of wall-clock timing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.common.config import CHAOS_PROFILES
from repro.common.errors import ConfigError

# ----------------------------------------------------------------------
# Injection sites.  Each constant names one ``chaos_hit`` call site in
# production code; the comment says which layer owns it.
# ----------------------------------------------------------------------
SITE_NET_DIAL = "net.dial"  # ConnectionPool._dial attempt (tcp)
SITE_NET_CALL = "net.call"  # TcpTransport.call, post-resolve (tcp)
SITE_NET_FRAME = "net.frame"  # TcpTransport frame encode (tcp)
SITE_NET_SERVE = "net.serve"  # MessageServer request handling (tcp)
SITE_WORKER_TASK = "worker.task"  # Worker._run_task entry
SITE_EXEC_COMPUTE = "exec.compute"  # Worker._execute, pre-backend
SITE_BLOCKS_FETCH = "blocks.fetch"  # BlockStore bucket lookup
SITE_STREAM_CHECKPOINT = "streaming.checkpoint"  # StreamingContext.checkpoint
SITE_STREAM_GROUP = "streaming.group"  # run_batches group boundary
SITE_ELASTIC_RESIZE = "elastic.resize"  # ElasticController, after each resize
SITE_DRIVER = "driver.control"  # StreamingContext driver-kill points (repro.ha)

ALL_SITES = (
    SITE_NET_DIAL,
    SITE_NET_CALL,
    SITE_NET_FRAME,
    SITE_NET_SERVE,
    SITE_WORKER_TASK,
    SITE_EXEC_COMPUTE,
    SITE_BLOCKS_FETCH,
    SITE_STREAM_CHECKPOINT,
    SITE_STREAM_GROUP,
    SITE_ELASTIC_RESIZE,
    SITE_DRIVER,
)

# ----------------------------------------------------------------------
# Fault kinds.  ``param`` is a kind-specific scalar (a delay in seconds,
# usually); kinds that take no parameter carry 0.0.
# ----------------------------------------------------------------------
KIND_DIAL_REFUSE = "dial_refuse"  # one dial attempt raises ConnectionRefused
KIND_NET_DROP = "net_drop"  # a call is dropped -> WorkerLost at the caller
KIND_NET_DELAY = "net_delay"  # a call is delayed by ``param`` seconds
KIND_NET_DUPLICATE = "net_duplicate"  # a call is sent twice (at-least-once)
KIND_NET_GARBLE = "net_garble"  # frame header corrupted on the wire
KIND_RESPONSE_DROP = "response_drop"  # server accepts a request, never replies
KIND_SERVER_KILL = "server_kill"  # a worker MessageServer closes mid-run
KIND_WORKER_KILL = "worker_kill"  # a worker dies at task entry
KIND_WORKER_HANG = "worker_hang"  # a worker stalls ``param`` s at task entry
KIND_EXEC_STRAGGLE = "exec_straggle"  # one task computes ``param`` s slower
KIND_BLOCK_DELETE = "block_delete"  # a shuffle bucket vanishes -> FetchFailed
KIND_CHECKPOINT_KILL = "checkpoint_kill"  # a worker dies during checkpoint
KIND_FORCE_REPLAY = "force_replay"  # streaming restore_and_replay mid-run
KIND_DRIVER_KILL = "driver_kill"  # the driver process dies (repro.ha recovers)

# Kinds that take a machine out; the injector charges these against the
# kill budget so a plan can never kill the last survivor.  A driver kill
# is deliberately NOT in this set: it takes out the control plane, not a
# worker, and the WAL — not the kill budget — bounds its blast radius.
KILL_KINDS = frozenset({KIND_SERVER_KILL, KIND_WORKER_KILL, KIND_CHECKPOINT_KILL})

# (site, kind, weight) templates per profile.  Weights bias the sampler;
# the "mixed" profile draws from everything.  The "net" profile is only
# meaningful on the tcp transport (the inproc transport never dials).
_NET_TEMPLATES: List[Tuple[str, str, float]] = [
    (SITE_NET_DIAL, KIND_DIAL_REFUSE, 2.0),
    (SITE_NET_CALL, KIND_NET_DROP, 2.0),
    (SITE_NET_CALL, KIND_NET_DELAY, 3.0),
    (SITE_NET_CALL, KIND_NET_DUPLICATE, 2.0),
    (SITE_NET_FRAME, KIND_NET_GARBLE, 1.0),
    (SITE_NET_SERVE, KIND_RESPONSE_DROP, 1.5),
    (SITE_NET_SERVE, KIND_SERVER_KILL, 1.0),
]
_WORKER_TEMPLATES: List[Tuple[str, str, float]] = [
    (SITE_WORKER_TASK, KIND_WORKER_KILL, 2.0),
    (SITE_WORKER_TASK, KIND_WORKER_HANG, 2.0),
    (SITE_EXEC_COMPUTE, KIND_EXEC_STRAGGLE, 3.0),
]
_STORAGE_TEMPLATES: List[Tuple[str, str, float]] = [
    (SITE_BLOCKS_FETCH, KIND_BLOCK_DELETE, 3.0),
    (SITE_WORKER_TASK, KIND_WORKER_KILL, 1.0),
]
_STREAMING_TEMPLATES: List[Tuple[str, str, float]] = [
    (SITE_STREAM_CHECKPOINT, KIND_CHECKPOINT_KILL, 2.0),
    (SITE_STREAM_GROUP, KIND_FORCE_REPLAY, 2.0),
    (SITE_WORKER_TASK, KIND_WORKER_KILL, 1.0),
    (SITE_EXEC_COMPUTE, KIND_EXEC_STRAGGLE, 1.0),
]
# The elastic profile's signature fault is a worker killed *racing* a
# resize: the controller hits SITE_ELASTIC_RESIZE once per applied
# resize, after the membership change and before the next group, and a
# kill there takes out the newest joiner (scale-out) or the
# highest-numbered survivor (scale-in).
_ELASTIC_TEMPLATES: List[Tuple[str, str, float]] = [
    (SITE_ELASTIC_RESIZE, KIND_WORKER_KILL, 3.0),
    (SITE_WORKER_TASK, KIND_WORKER_KILL, 1.0),
    (SITE_STREAM_GROUP, KIND_FORCE_REPLAY, 1.0),
    (SITE_EXEC_COMPUTE, KIND_EXEC_STRAGGLE, 1.0),
]
# The driver profile's signature fault is a control-plane crash.  The
# streaming loop threads SITE_DRIVER through three distinct moments —
# the group boundary (right after a group commit is journaled), mid
# group (before the commit exists), and mid checkpoint — so one site
# covers all three crash alignments the WAL must survive; the fault log
# records which moment fired via the site's ``method`` tag.
_DRIVER_TEMPLATES: List[Tuple[str, str, float]] = [
    (SITE_DRIVER, KIND_DRIVER_KILL, 4.0),
    (SITE_EXEC_COMPUTE, KIND_EXEC_STRAGGLE, 1.0),
]

# Guaranteed first event per profile: fired on the first hit of a site
# every soak workload of the profile reaches, so every armed run injects
# at least one fault by construction.
_PROFILE_TEMPLATES: Dict[str, Dict[str, object]] = {
    "net": {
        "templates": _NET_TEMPLATES,
        "guaranteed": (SITE_NET_CALL, KIND_NET_DELAY),
    },
    "workers": {
        "templates": _WORKER_TEMPLATES,
        "guaranteed": (SITE_WORKER_TASK, KIND_WORKER_KILL),
    },
    "storage": {
        "templates": _STORAGE_TEMPLATES,
        "guaranteed": (SITE_BLOCKS_FETCH, KIND_BLOCK_DELETE),
    },
    "streaming": {
        "templates": _STREAMING_TEMPLATES,
        "guaranteed": (SITE_STREAM_CHECKPOINT, KIND_CHECKPOINT_KILL),
    },
    "mixed": {
        "templates": _NET_TEMPLATES + _WORKER_TEMPLATES + _STORAGE_TEMPLATES,
        "guaranteed": (SITE_WORKER_TASK, KIND_WORKER_KILL),
    },
    "elastic": {
        "templates": _ELASTIC_TEMPLATES,
        "guaranteed": (SITE_ELASTIC_RESIZE, KIND_WORKER_KILL),
    },
    "driver": {
        "templates": _DRIVER_TEMPLATES,
        "guaranteed": (SITE_DRIVER, KIND_DRIVER_KILL),
    },
}
assert set(_PROFILE_TEMPLATES) == set(CHAOS_PROFILES)

# Per-plan caps on kinds that burn bounded client budgets (dial retries,
# launch attempts): too many of these in one schedule would turn a
# recoverable fault into a predetermined job failure.
_KIND_CAPS = {
    KIND_DIAL_REFUSE: 2,
    KIND_NET_DROP: 2,
    KIND_NET_GARBLE: 2,
    # Each driver kill costs a full WAL recovery; two per plan keeps the
    # soak wall time bounded while still covering a double-crash.
    KIND_DRIVER_KILL: 2,
}


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: fire ``kind`` on hit number ``at_hit`` of ``site``."""

    event_id: int
    site: str
    kind: str
    at_hit: int
    param: float = 0.0

    def describe(self) -> str:
        extra = f" param={self.param:.3f}" if self.param else ""
        return f"#{self.event_id} {self.kind} @ {self.site} hit {self.at_hit}{extra}"


class FaultPlan:
    """A deterministic schedule of :class:`FaultEvent`\\ s."""

    def __init__(self, events: List[FaultEvent], seed: int = 0, profile: str = "mixed"):
        self.events = list(events)
        self.seed = seed
        self.profile = profile

    @staticmethod
    def generate(seed: int, profile: str = "mixed", intensity: float = 1.0) -> "FaultPlan":
        if profile not in _PROFILE_TEMPLATES:
            raise ConfigError(
                f"chaos profile must be one of {CHAOS_PROFILES}, got {profile!r}"
            )
        if intensity <= 0:
            raise ConfigError("chaos intensity must be positive")
        spec = _PROFILE_TEMPLATES[profile]
        templates: List[Tuple[str, str, float]] = spec["templates"]  # type: ignore[assignment]
        rng = random.Random(f"repro.chaos/{seed}/{profile}")

        n_events = max(1, round(6 * intensity))
        events: List[FaultEvent] = []
        taken: set = set()  # (site, at_hit) — one fault per exact hit
        kind_counts: Dict[str, int] = {}

        def _param_for(kind: str) -> float:
            if kind in (KIND_NET_DELAY, KIND_EXEC_STRAGGLE):
                # Stragglers must exceed the speculation threshold by a
                # visible margin; plain delays stay small.
                lo, hi = (0.3, 0.6) if kind == KIND_EXEC_STRAGGLE else (0.01, 0.15)
                return round(rng.uniform(lo, hi), 3)
            if kind == KIND_WORKER_HANG:
                return round(rng.uniform(0.05, 0.4), 3)
            return 0.0

        def _add(site: str, kind: str, at_hit: int) -> None:
            while (site, at_hit) in taken:
                at_hit += 1
            taken.add((site, at_hit))
            events.append(
                FaultEvent(
                    event_id=len(events),
                    site=site,
                    kind=kind,
                    at_hit=at_hit,
                    param=_param_for(kind),
                )
            )
            kind_counts[kind] = kind_counts.get(kind, 0) + 1

        g_site, g_kind = spec["guaranteed"]  # type: ignore[misc]
        rng.randint(1, 4)  # unused draw: keeps each seed's other events stable
        _add(g_site, g_kind, 1)

        weights = [w for (_, _, w) in templates]
        while len(events) < n_events:
            site, kind, _ = rng.choices(templates, weights=weights, k=1)[0]
            cap = _KIND_CAPS.get(kind)
            if cap is not None and kind_counts.get(kind, 0) >= cap:
                continue
            # Spread hits over a window that scales with the plan size so
            # long soaks keep injecting past the first group.
            _add(site, kind, rng.randint(1, max(6, 3 * n_events)))

        events.sort(key=lambda e: (e.site, e.at_hit))
        events = [
            FaultEvent(i, e.site, e.kind, e.at_hit, e.param)
            for i, e in enumerate(events)
        ]
        return FaultPlan(events, seed=seed, profile=profile)

    def describe(self) -> str:
        head = f"FaultPlan(seed={self.seed}, profile={self.profile!r}, {len(self.events)} events)"
        return "\n".join([head] + [f"  {e.describe()}" for e in self.events])

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)
