"""Deterministic, seeded fault injection for chaos-testing recovery paths.

The fault-tolerance layer (shard supervisor, job retry machinery)
is only trustworthy if its recovery paths are exercised continuously — and
the repo's bitwise-deterministic seeding makes that cheap: a recovered run
must equal the unfaulted run *exactly*, so a chaos test is an equality
assertion, not a statistical one.  This module supplies the controlled
failures:

* :class:`FaultInjector` holds :class:`FaultRule` entries and is consulted
  at named **sites** (``"shard"`` — one process-pool shard dispatch,
  ``"job"`` — a service job checkpoint).  Each consultation
  deterministically decides, from the injector seed and the per-rule
  consultation counter alone, whether a fault fires — the same schedule
  replays exactly across runs, regardless of thread interleaving at *other*
  sites.
* Fired faults become picklable :class:`FaultDirective` values.  The shard
  supervisor consults the injector **in the parent** and ships directives
  inside shard payloads, so injection works with the persistent
  forked worker pool without any cross-process injector state.
* Directive kinds: ``"kill"`` (``SIGKILL`` the executing worker process —
  a hard crash mid-shard), ``"delay"`` (sleep ``seconds`` — drive a shard
  past its wall-clock timeout) and ``"raise"`` (raise
  :class:`~repro.execution.errors.TransientFault`).

Configuration is by constructor (tests) or the ``REPRO_FAULTS``
environment variable (CI chaos passes)::

    REPRO_FAULTS="seed=7,shard.kill=1/1,job.raise=0.5/2"

i.e. comma-separated ``site.kind=rate[/limit][:seconds]`` rules plus an
optional ``seed=N``.  ``rate`` is the per-consultation firing probability
(resolved deterministically from the seed — not from a live RNG), ``limit``
caps total firings of the rule, ``seconds`` sets the delay duration.
"""

from __future__ import annotations

import hashlib
import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import TransientFault

__all__ = [
    "FAULTS_ENV", "FAULT_SITES", "FAULT_KINDS", "FaultRule",
    "FaultDirective", "FaultInjector", "TransientFault", "active_injector",
    "clear_injector", "consult", "execute_directive", "inject_faults",
    "install_injector", "parse_fault_spec",
]

#: Environment variable holding a fault spec (see module docstring).
FAULTS_ENV = "REPRO_FAULTS"

#: Consultation sites the harness knows about.
FAULT_SITES = ("shard", "job")

#: Supported directive kinds.
FAULT_KINDS = ("kill", "delay", "raise")


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: fire ``kind`` at ``site`` with probability
    ``rate`` per consultation, at most ``limit`` times total."""

    site: str
    kind: str
    rate: float = 1.0
    limit: Optional[int] = None
    seconds: float = 0.05  # sleep duration for "delay" directives

    def __post_init__(self):
        if self.site not in FAULT_SITES:
            raise ValueError(f"unknown fault site {self.site!r} "
                             f"(expected one of {FAULT_SITES})")
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} "
                             f"(expected one of {FAULT_KINDS})")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")

    @property
    def label(self) -> str:
        return f"{self.site}.{self.kind}"


@dataclass(frozen=True)
class FaultDirective:
    """A fired fault, shipped (picklably) to wherever it executes."""

    kind: str
    seconds: float = 0.0
    note: str = ""


def _fires(seed: int, rule: FaultRule, rule_index: int,
           occurrence: int) -> bool:
    """Deterministic Bernoulli draw for one rule consultation.

    The decision hashes (seed, site, kind, rule position, per-rule
    consultation index) — no shared RNG stream, so concurrent consultations
    of *different* sites can never perturb each other's schedules.
    """
    if rule.rate >= 1.0:
        return True
    if rule.rate <= 0.0:
        return False
    material = (f"{seed}|{rule.site}|{rule.kind}|{rule_index}|{occurrence}"
                .encode("utf-8"))
    digest = hashlib.blake2b(material, digest_size=8).digest()
    fraction = int.from_bytes(digest, "big") / float(1 << 64)
    return fraction < rule.rate


@dataclass
class FaultInjector:
    """A deterministic fault schedule over a set of rules.

    ``directive(site)`` is thread-safe; per-rule consultation and firing
    counters advance under a lock, so the schedule is a pure function of
    the per-site consultation *order* (which the supervisor makes
    deterministic by consulting in shard-index order before dispatch).
    """

    rules: Sequence[FaultRule] = ()
    seed: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)
    _consults: Dict[int, int] = field(default_factory=dict,
                                      repr=False, compare=False)
    _fired: Dict[int, int] = field(default_factory=dict,
                                   repr=False, compare=False)

    def directive(self, site: str) -> Optional[FaultDirective]:
        """Consult the schedule at ``site``; the first rule that fires
        wins (rules are independent — each keeps its own counters)."""
        with self._lock:
            hit: Optional[FaultDirective] = None
            for index, rule in enumerate(self.rules):
                if rule.site != site:
                    continue
                occurrence = self._consults.get(index, 0)
                self._consults[index] = occurrence + 1
                if hit is not None:
                    continue  # still advance later rules' clocks
                fired = self._fired.get(index, 0)
                if rule.limit is not None and fired >= rule.limit:
                    continue
                if _fires(self.seed, rule, index, occurrence):
                    self._fired[index] = fired + 1
                    hit = FaultDirective(
                        kind=rule.kind, seconds=rule.seconds,
                        note=f"{rule.label}#{fired + 1}")
            return hit

    def fired_counts(self) -> Dict[str, int]:
        """Total firings per ``site.kind`` label so far."""
        with self._lock:
            counts: Dict[str, int] = {}
            for index, fired in self._fired.items():
                label = self.rules[index].label
                counts[label] = counts.get(label, 0) + fired
            return counts

    def reset(self) -> None:
        """Rewind all counters — the schedule replays from the start."""
        with self._lock:
            self._consults.clear()
            self._fired.clear()


def parse_fault_spec(spec: str) -> FaultInjector:
    """Build a :class:`FaultInjector` from a ``REPRO_FAULTS``-style spec.

    Format: comma-separated entries, each either ``seed=N`` or
    ``site.kind=rate[/limit][:seconds]``.  Example::

        parse_fault_spec("seed=7,shard.kill=1/1,shard.delay=0.5/2:0.2")
    """
    seed = 0
    rules: List[FaultRule] = []
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        name, _, value = entry.partition("=")
        name = name.strip()
        value = value.strip()
        if not value:
            raise ValueError(f"malformed fault entry {entry!r} "
                             f"(expected name=value)")
        if name == "seed":
            seed = int(value)
            continue
        site, _, kind = name.partition(".")
        value, _, seconds = value.partition(":")
        rate, _, limit = value.partition("/")
        rules.append(FaultRule(
            site=site, kind=kind, rate=float(rate),
            limit=int(limit) if limit else None,
            seconds=float(seconds) if seconds else 0.05))
    return FaultInjector(rules=tuple(rules), seed=seed)


# ---------------------------------------------------------------------------
# The process-wide active injector
# ---------------------------------------------------------------------------

_active: Optional[FaultInjector] = None
_active_lock = threading.Lock()
#: Injector parsed from the environment, cached per spec string so its
#: firing counters persist across consultations within one process.
_env_cached: Tuple[Optional[str], Optional[FaultInjector]] = (None, None)


def install_injector(injector: Optional[FaultInjector]) -> None:
    """Make ``injector`` the process-wide schedule (None uninstalls)."""
    global _active
    with _active_lock:
        _active = injector


def clear_injector() -> None:
    install_injector(None)


def active_injector() -> Optional[FaultInjector]:
    """The installed injector, else one parsed from ``REPRO_FAULTS``
    (cached per spec value), else None — the no-chaos fast path."""
    global _env_cached
    with _active_lock:
        if _active is not None:
            return _active
        spec = os.environ.get(FAULTS_ENV) or None
        if spec is None:
            return None
        cached_spec, cached = _env_cached
        if cached_spec != spec:
            cached = parse_fault_spec(spec)
            _env_cached = (spec, cached)
        return cached


def consult(site: str) -> Optional[FaultDirective]:
    """One schedule consultation at ``site`` (None when chaos is off)."""
    injector = active_injector()
    return injector.directive(site) if injector is not None else None


@contextmanager
def inject_faults(spec: Union[str, FaultInjector], seed: int = 0):
    """Scoped installation: ``with inject_faults("shard.kill=1/1"): ...``.

    ``spec`` is a spec string (``seed`` applies unless the string carries
    its own ``seed=`` entry) or a ready :class:`FaultInjector`.  Yields the
    injector so tests can assert on :meth:`FaultInjector.fired_counts`.
    """
    if isinstance(spec, FaultInjector):
        injector = spec
    else:
        injector = parse_fault_spec(spec)
        if "seed=" not in spec:
            injector = FaultInjector(rules=injector.rules, seed=seed)
    install_injector(injector)
    try:
        yield injector
    finally:
        clear_injector()


def execute_directive(directive: FaultDirective) -> None:
    """Carry out a directive at its execution point.

    ``"kill"`` SIGKILLs the **current process** — only execute directives
    in a context prepared to die (a pool worker); the shard supervisor
    never forwards directives to its inline-degraded path for exactly this
    reason.
    """
    if directive.kind == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif directive.kind == "delay":
        time.sleep(max(0.0, directive.seconds))
    elif directive.kind == "raise":
        raise TransientFault(f"injected fault {directive.note or 'raise'}")
