"""Deterministic fault injection for campaign fault-tolerance tests.

A :class:`FaultInjector` carries a list of :class:`FaultRule` entries
and is consulted by the campaign runner immediately before each shard
attempt executes.  A matching rule either raises (``error``), hard-kills
the worker process (``crash`` -- the closest reproducible stand-in for
an OOM kill or SIGKILL), or sleeps past the orchestrator's shard
timeout (``hang``).  Rules match on (technique, seed, attempt), so a
test can say "crash shard (PARA, 0) on its first two attempts, then let
it succeed" and exercise the retry machinery without any flakiness.

Injectors are plain picklable dataclasses, so they travel inside
:class:`~repro.sim.parallel.CampaignJob` to pool workers.  For
subprocess-level tests (and the CI kill-and-resume job) the spec can
also be supplied as JSON through the ``REPRO_FAULT_INJECT`` environment
variable, e.g.::

    REPRO_FAULT_INJECT='[{"mode": "hang", "technique": "TWiCe",
                          "seed": 1, "seconds": 60}]'

Production campaigns never construct an injector; every hook is a
no-op when it is ``None`` (the default everywhere).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

#: environment variable holding a JSON fault spec (list of rule dicts)
FAULT_ENV_VAR = "REPRO_FAULT_INJECT"

#: process exit code used by ``crash`` rules inside pool workers, so a
#: post-mortem can tell an injected crash from a real one
CRASH_EXIT_CODE = 86

_MODES = ("crash", "error", "hang")


class InjectedFault(RuntimeError):
    """Raised by an ``error`` rule; stands in for any worker exception."""

    #: consumed by the retry loop to classify the failure
    shard_fault_kind = "error"


class SimulatedCrash(RuntimeError):
    """Raised by a ``crash`` rule when the shard runs inline.

    In a pool worker the same rule calls ``os._exit`` instead, which the
    orchestrator observes as a broken process pool -- exactly what a
    real worker death looks like.
    """

    shard_fault_kind = "crash"


@dataclass(frozen=True)
class FaultRule:
    """One deterministic fault: *mode* fired for matching shard attempts.

    ``technique``/``seed`` of ``None`` match any shard; ``attempts`` of
    ``None`` matches every attempt (a shard that can never succeed),
    while e.g. ``attempts=(0, 1)`` fails the first two attempts only.
    """

    mode: str
    technique: Optional[str] = None
    seed: Optional[int] = None
    attempts: Optional[Tuple[int, ...]] = None
    #: sleep duration for ``hang`` rules
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(
                f"unknown fault mode {self.mode!r}; expected one of {_MODES}"
            )
        if self.attempts is not None:
            object.__setattr__(self, "attempts", tuple(self.attempts))

    def matches(self, technique: str, seed: int, attempt: int) -> bool:
        if self.technique is not None and self.technique != technique:
            return False
        if self.seed is not None and self.seed != seed:
            return False
        if self.attempts is not None and attempt not in self.attempts:
            return False
        return True

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"mode": self.mode}
        if self.technique is not None:
            out["technique"] = self.technique
        if self.seed is not None:
            out["seed"] = self.seed
        if self.attempts is not None:
            out["attempts"] = list(self.attempts)
        if self.mode == "hang":
            out["seconds"] = self.seconds
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultRule":
        attempts = data.get("attempts")
        return cls(
            mode=data["mode"],
            technique=data.get("technique"),
            seed=data.get("seed"),
            attempts=tuple(attempts) if attempts is not None else None,
            seconds=float(data.get("seconds", 0.0)),
        )


@dataclass(frozen=True)
class FaultInjector:
    """Fires the first matching rule for each shard attempt."""

    rules: Tuple[FaultRule, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    def fire(
        self, technique: str, seed: int, attempt: int,
        in_worker: bool = False,
    ) -> None:
        """Apply the first rule matching this shard attempt, if any.

        ``hang`` sleeps and returns (the shard then runs normally --
        the orchestrator should have timed it out by then); ``error``
        raises :class:`InjectedFault`; ``crash`` kills the process when
        *in_worker* (pool mode) or raises :class:`SimulatedCrash`
        inline, where killing the process would take the orchestrator
        down with it.
        """
        for rule in self.rules:
            if not rule.matches(technique, seed, attempt):
                continue
            label = f"{technique}/seed={seed}/attempt={attempt}"
            if rule.mode == "hang":
                time.sleep(rule.seconds)
                return
            if rule.mode == "error":
                raise InjectedFault(f"injected worker error at {label}")
            if in_worker:
                os._exit(CRASH_EXIT_CODE)
            raise SimulatedCrash(f"injected worker crash at {label}")

    def spec(self) -> str:
        """JSON round-trip form (suitable for :data:`FAULT_ENV_VAR`)."""
        return json.dumps([rule.as_dict() for rule in self.rules])

    @classmethod
    def from_rules(cls, rules: Sequence[Dict[str, Any]]) -> "FaultInjector":
        return cls(rules=tuple(FaultRule.from_dict(rule) for rule in rules))

    @classmethod
    def from_spec(cls, text: str) -> "FaultInjector":
        """Parse a JSON list of rule dicts (see module docstring)."""
        parsed = json.loads(text)
        if not isinstance(parsed, list):
            raise ValueError(
                f"fault spec must be a JSON list of rules, got {type(parsed)}"
            )
        return cls.from_rules(parsed)

    @classmethod
    def from_env(cls, name: str = FAULT_ENV_VAR) -> Optional["FaultInjector"]:
        """Injector from the environment, or ``None`` when unset/empty."""
        text = os.environ.get(name, "").strip()
        if not text:
            return None
        return cls.from_spec(text)
