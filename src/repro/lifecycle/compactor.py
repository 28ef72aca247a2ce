"""Clock-driven background compaction with seeded fault injection.

:class:`BackgroundCompactor` is the operational wrapper around
:meth:`LifecycleIndex.maybe_compact`: a host (the serving layer's
``poll()``, a maintenance thread, a test driver) calls :meth:`tick`
periodically; the compactor consults the lifecycle's size/tombstone
policy plus its own interval on the **pluggable clock**, so a
:class:`~repro.utils.clock.FakeClock` replay makes every compaction
fire at exactly the same virtual instant on every run.

Crash testing is seeded: a :class:`CompactorFaultPlan` decides from a
seed at which (attempt, stage) the compactor "dies" mid-merge, raising
:class:`CompactorKilled` out of the lifecycle's ``on_stage`` hook.  The
lifecycle guarantees a killed compaction leaves the old epoch fully
live; :meth:`tick` records the crash and the next tick is the respawn
that retries.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.lifecycle.manager import (
    CompactionInProgress,
    CompactionReport,
    LifecycleIndex,
)
from repro.utils.clock import Clock

__all__ = [
    "BackgroundCompactor", "CompactorFaultPlan", "CompactorKilled",
    "COMPACTION_STAGES",
]

#: Stages the lifecycle's ``on_stage`` hook passes through, in order.
COMPACTION_STAGES = ("cut", "build", "install")


class CompactorKilled(RuntimeError):
    """The injected mid-merge death of a compactor attempt."""


@dataclasses.dataclass(frozen=True)
class CompactorFaultPlan:
    """Seeded schedule of compactor deaths.

    Attributes:
        kill_attempts: map of attempt index (0-based, counted across
            the compactor's lifetime) to the stage name at which that
            attempt dies.
    """

    kill_attempts: dict[int, str] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        for attempt, stage in self.kill_attempts.items():
            if stage not in COMPACTION_STAGES:
                raise ValueError(
                    f"unknown compaction stage {stage!r} for attempt "
                    f"{attempt}; stages are {COMPACTION_STAGES}"
                )

    @classmethod
    def seeded(
        cls, seed: int, n_kills: int, attempts_span: int = 4
    ) -> "CompactorFaultPlan":
        """Derive a reproducible kill schedule from a seed.

        Picks ``n_kills`` distinct attempt indices in
        ``[0, attempts_span)`` and a random stage for each — the same
        seed always kills the same attempts at the same stages.
        """
        gen = np.random.default_rng(seed)
        n_kills = min(int(n_kills), int(attempts_span))
        chosen = gen.choice(attempts_span, size=n_kills, replace=False)
        stages = gen.choice(len(COMPACTION_STAGES), size=n_kills)
        return cls(kill_attempts={
            int(a): COMPACTION_STAGES[int(s)]
            for a, s in zip(chosen, stages)
        })

    def hook_for(self, attempt: int):
        """The ``on_stage`` hook for one attempt (None if it survives)."""
        stage = self.kill_attempts.get(int(attempt))
        if stage is None:
            return None

        def on_stage(reached: str) -> None:
            if reached == stage:
                raise CompactorKilled(
                    f"compactor killed at stage {stage!r} "
                    f"(attempt {attempt})"
                )

        return on_stage


class BackgroundCompactor:
    """Periodic compaction driver over one :class:`LifecycleIndex`.

    Args:
        lifecycle: the index to compact.
        interval_s: minimum clock seconds between *successful*
            compactions triggered by :meth:`tick` (crashed attempts
            retry on the next tick regardless).
        fault_plan: optional seeded kill schedule (chaos tests).
        clock: defaults to the lifecycle's clock.
    """

    def __init__(
        self,
        lifecycle: LifecycleIndex,
        interval_s: float = 0.0,
        fault_plan: CompactorFaultPlan | None = None,
        clock: Clock | None = None,
    ) -> None:
        self.lifecycle = lifecycle
        self.interval_s = float(interval_s)
        self.fault_plan = fault_plan
        self.clock = clock or lifecycle.clock
        self.attempts = 0
        self.crashes = 0
        self.compactions = 0
        self.last_run_s: float | None = None
        self.last_error: str | None = None

    def tick(self) -> CompactionReport | None:
        """One scheduling step: compact if due, survive injected death.

        Returns the :class:`CompactionReport` when a compaction ran to
        completion, None when the policy held it back, the attempt lost
        the admission race to a concurrent compaction (routine when two
        hosts tick the same lifecycle — ``should_compact`` drops the
        lock before ``compact`` reacquires it), or the attempt crashed
        (the crash is counted and the old epoch stays live).
        """
        now = self.clock.monotonic()
        if (self.last_run_s is not None
                and now - self.last_run_s < self.interval_s):
            return None
        if not self.lifecycle.should_compact():
            return None
        hook = (self.fault_plan.hook_for(self.attempts)
                if self.fault_plan is not None else None)
        self.attempts += 1
        try:
            report = self.lifecycle.compact(on_stage=hook)
        except CompactionInProgress:
            # Lost the race; nothing ran, so the attempt index (which
            # drives the seeded fault schedule) is handed back to the
            # next real attempt.
            self.attempts -= 1
            return None
        except CompactorKilled as death:
            self.crashes += 1
            self.last_error = str(death)
            return None
        self.compactions += 1
        self.last_run_s = self.clock.monotonic()
        self.last_error = None
        return report

    def stats(self) -> dict:
        """Counters for dashboards and chaos assertions."""
        return {
            "attempts": self.attempts,
            "crashes": self.crashes,
            "compactions": self.compactions,
            "last_error": self.last_error,
        }
