"""Deterministic, seeded fault injection for chaos-testing recovery paths.

The fault-tolerance layer (the fork pool's inline rerun of a dead
worker's shards, the service's job retries) is only trustworthy if its
recovery paths are exercised continuously — and the repo's
bitwise-deterministic seeding makes that cheap: a recovered run must
equal the unfaulted run *exactly*, so a chaos test is an equality
assertion, not a statistical one.  This module supplies the controlled
failures through the library's one hook,
:data:`repro.execution.sharding.fault_hook`:

* :class:`FaultInjector` holds :class:`FaultRule` entries and, installed
  as the hook, is consulted at named **sites** (``"shard"`` — one
  process-pool shard dispatch, ``"job"`` — a service job checkpoint).
  Each consultation deterministically decides, from the injector seed and
  the per-rule consultation counter alone, whether a fault fires — the
  same schedule replays exactly across runs, regardless of thread
  interleaving at *other* sites.
* Fired faults are picklable, callable :class:`FaultDirective` values.
  Pooled dispatch consults the hook **in the parent** and ships
  directives inside shard payloads, so injection works with the
  persistent forked worker pool without any cross-process injector state.
* Directive kinds per site (:data:`SITE_KINDS`): at ``"shard"`` only
  ``"kill"`` (``SIGKILL`` the executing worker process — a hard crash
  mid-shard); at ``"job"`` ``"delay"`` (sleep ``seconds`` — drive a job
  past its deadline) and ``"raise"`` (raise :class:`TransientFault`,
  which the service retries like any other job error).

Configuration is by constructor, by a scoped :func:`inject_faults`, or by
the ``REPRO_FAULTS`` environment variable, which ``conftest.py`` reads
once per session (the CI background-chaos pass)::

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
from typing import Dict, List, Optional, Sequence, Union

from repro.execution import sharding

#: Environment variable holding a fault spec (see module docstring).
FAULTS_ENV = "REPRO_FAULTS"

#: Directive kinds each consultation site the library exposes accepts.
SITE_KINDS = {"shard": ("kill",), "job": ("delay", "raise")}


class TransientFault(RuntimeError):
    """The error a ``job.raise`` directive raises at a job checkpoint."""


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
        if self.site not in SITE_KINDS:
            raise ValueError(f"unknown fault site {self.site!r} "
                             f"(expected one of {tuple(SITE_KINDS)})")
        if self.kind not in SITE_KINDS[self.site]:
            raise ValueError(f"unknown fault kind {self.kind!r} at site "
                             f"{self.site!r} (expected one of "
                             f"{SITE_KINDS[self.site]})")
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

    def __call__(self) -> None:
        """Carry out the fault at its execution point.

        ``"kill"`` SIGKILLs the **current process** — pooled dispatch runs
        shard directives only in pool workers, never when it reruns a
        shard in the caller, for exactly this reason.
        """
        if self.kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif self.kind == "delay":
            time.sleep(max(0.0, self.seconds))
        elif self.kind == "raise":
            raise TransientFault(f"injected fault {self.note or 'raise'}")


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
    the per-site consultation *order* (which pooled dispatch makes
    deterministic by consulting in shard-index order before submitting).
    Calling the injector is ``directive``, which is what makes it a
    :data:`~repro.execution.sharding.fault_hook`.
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

    __call__ = directive

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

        parse_fault_spec("seed=7,shard.kill=1/1,job.delay=0.5/2:0.2")
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
# Installation as the library's fault hook
# ---------------------------------------------------------------------------


def active_injector() -> Optional[FaultInjector]:
    """The injector installed as the fault hook, or None."""
    return sharding.fault_hook


def install_injector(injector: Optional[FaultInjector]
                     ) -> Optional[FaultInjector]:
    """Make ``injector`` the fault hook (None uninstalls); returns the
    injector it replaced."""
    previous = sharding.fault_hook
    sharding.fault_hook = injector
    return previous


def install_from_env() -> Optional[FaultInjector]:
    """Install the injector ``REPRO_FAULTS`` describes and return it, or
    leave the hook alone and return None when the variable is unset.  One
    injector serves the whole session, so its counters persist across
    consultations."""
    spec = os.environ.get(FAULTS_ENV)
    if not spec:
        return None
    injector = parse_fault_spec(spec)
    install_injector(injector)
    return injector


@contextmanager
def inject_faults(spec: Union[str, FaultInjector], seed: int = 0):
    """Scoped installation: ``with inject_faults("shard.kill=1/1"): ...``.

    ``spec`` is a spec string (``seed`` applies unless the string carries
    its own ``seed=`` entry) or a ready :class:`FaultInjector`.  Yields the
    injector so tests can assert on :meth:`FaultInjector.fired_counts`,
    and on exit restores whichever injector was installed before (the
    session's ``REPRO_FAULTS`` one, say), not an empty hook.
    """
    if isinstance(spec, FaultInjector):
        injector = spec
    else:
        injector = parse_fault_spec(spec)
        if "seed=" not in spec:
            injector = FaultInjector(rules=injector.rules, seed=seed)
    previous = install_injector(injector)
    try:
        yield injector
    finally:
        install_injector(previous)
