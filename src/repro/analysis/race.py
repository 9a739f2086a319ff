"""Schedule-perturbation race detector (the dynamic half of panda-lint).

Static lints cannot see every order-dependence, so this module attacks
the invariant directly: the simulator's dispatch order among
*same-timestamp, causally-unordered* events is an implementation
detail, and no simulated result may depend on it.  The detector runs
each scenario under the engine's controlled loop with a
:class:`PerturbController`, which logs every dispatch and, given a
seed, picks uniformly at random -- from a seeded PRNG -- among every
queued entry carrying the minimal timestamp.  Causality is preserved
for free: an event only becomes a candidate after the event that
scheduled it has run, and time never goes backwards.

A :class:`Scenario` is a named ``run(controller) -> Outcome``: it
builds everything fresh, installs the controller before the first
dispatch, and returns an exact fingerprint.  The race detector and
panda-mc (:mod:`repro.analysis.mc`) share the type, and both take
their scenarios from one place: the committed trace corpus
(:mod:`repro.replay.scenarios`), each trace replayed on a fresh
runtime (:func:`trace_scenario`).  A trace's fingerprint is its
per-run op timings and admission schedule plus the stored-bytes
digest -- the strings the replayer pins.  The detector runs each
scenario once unperturbed and once per seed, and any fingerprint
mismatch is a latent race; the report pinpoints the first pair of
dispatch decisions where the perturbed schedule departed from the
baseline, which is where to start reading.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.analysis.hb import SleepBlocked
from repro.sim.engine import SimulationError

__all__ = [
    "Divergence",
    "Outcome",
    "PerturbController",
    "RaceReport",
    "Scenario",
    "corpus_scenarios",
    "detect",
    "guarded",
    "trace_scenario",
]

#: (simulated time, dispatch label) -- one entry per dispatched event.
DispatchLog = List[Tuple[float, str]]


class PerturbController:
    """The detector's dispatch controller (see
    :meth:`repro.sim.engine.Simulator.enable_controller`): it records
    ``(time, label)`` for every dispatched event in :attr:`log` and,
    given a seed, picks uniformly at random among the same-instant
    frontier.  The PRNG is drawn only when there is a real choice (more
    than one candidate), so a seed names one fixed schedule.  Unseeded,
    it picks the lowest seq -- exactly the fast loop's order."""

    def __init__(self, seed: Optional[int] = None) -> None:
        self._rng = random.Random(f"perturb:{seed}") if seed is not None else None
        self.log: DispatchLog = []

    def choose(self, t: float, frontier: List[Tuple[int, str]]) -> int:
        if self._rng is None:
            return min(range(len(frontier)), key=lambda i: frontier[i][0])
        if len(frontier) > 1:
            return self._rng.randrange(len(frontier))
        return 0

    def begin(self, t: float, seq: int, label: str) -> None:
        self.log.append((t, label))

    def end(self, pre_seq: int, post_seq: int) -> None:
        pass

    def note(self, obj: Any) -> None:
        pass


@dataclass
class Outcome:
    """What one controlled execution of a scenario produced."""

    status: str  #: complete | sleep-blocked | deadlock | error
    fingerprint: Optional[Tuple[str, ...]] = None
    orphans: int = 0  #: messages left in mailboxes at quiescence
    error: str = ""


@dataclass(frozen=True)
class Scenario:
    """A named, repeatable simulation run: ``run(controller)`` builds
    everything fresh, installs the controller on the simulator
    (``sim.enable_controller``) before the first dispatch, runs to
    quiescence, and returns an :class:`Outcome`."""

    name: str
    run: Callable[[Any], Outcome]


def guarded(run: Callable[[Any], Outcome]) -> Callable[[Any], Outcome]:
    """Wrap a scenario's ``run`` so the controlled loop's exits become
    outcomes: a sleep-blocked permutation, a deadlock, or an error."""

    def wrapped(controller: Any) -> Outcome:
        try:
            return run(controller)
        except SleepBlocked:
            return Outcome("sleep-blocked")
        except SimulationError as exc:
            kind = "deadlock" if str(exc).startswith("deadlock") else "error"
            return Outcome(kind, error=str(exc))

    return wrapped


def trace_scenario(trace: Any) -> Scenario:
    """A committed trace as a scenario: replay it on a fresh runtime
    under the controller.  A replay that departs from its recorded
    stimuli mid-flight (an op shed that was admitted, or reached late)
    is a fingerprint divergence, not an error."""
    from repro.replay.replayer import ReplayDivergence, replay

    @guarded
    def run(controller: Any) -> Outcome:
        try:
            out = replay(trace, controller=controller)
        except ReplayDivergence as exc:
            return Outcome("complete", fingerprint=(f"replay diverged: {exc}",))
        fingerprint = tuple(s for per_run in out.fingerprints for s in per_run)
        orphans = sum(len(mb) for mb in out.runtime.network.mailboxes)
        return Outcome("complete", fingerprint + (f"stored:{out.stored}",),
                       orphans)

    return Scenario(trace.name, run)


def corpus_scenarios(names: Optional[Sequence[str]] = None) -> List[Scenario]:
    """The committed corpus (or the named traces of it) as scenarios."""
    from repro.replay.scenarios import golden_names, load_golden

    return [trace_scenario(load_golden(n))
            for n in (golden_names() if names is None else names)]


@dataclass(frozen=True)
class Divergence:
    """A detected race: scenario + seed + where schedules first split."""

    scenario: str
    seed: int
    #: index into the dispatch logs of the first differing entry.
    event_index: int
    baseline_event: Optional[Tuple[float, str]]
    perturbed_event: Optional[Tuple[float, str]]
    baseline_fingerprint: Tuple[str, ...]
    perturbed_fingerprint: Tuple[str, ...]

    def describe(self) -> str:
        def fmt(e: Optional[Tuple[float, str]]) -> str:
            return f"t={e[0]:.9f} {e[1]}" if e is not None else "<log ended>"

        mism = [
            f"    {b!r} != {p!r}"
            for b, p in zip(self.baseline_fingerprint,
                            self.perturbed_fingerprint)
            if b != p
        ]
        return (
            f"RACE {self.scenario} (seed {self.seed}): results depend on "
            f"dispatch order\n"
            f"  first diverging event pair (index {self.event_index}):\n"
            f"    baseline : {fmt(self.baseline_event)}\n"
            f"    perturbed: {fmt(self.perturbed_event)}\n"
            f"  fingerprint mismatches:\n" + "\n".join(mism)
        )


@dataclass
class RaceReport:
    """Outcome of one detector sweep."""

    scenarios: List[str]
    seeds: Tuple[int, ...]
    runs: int = 0
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    @property
    def divergent(self) -> List[Tuple[str, int]]:
        """Every diverging (scenario, seed) pair, in sweep order."""
        return [(d.scenario, d.seed) for d in self.divergences]

    def summary(self) -> str:
        head = (
            f"race detector: {len(self.scenarios)} scenario(s) x "
            f"{len(self.seeds)} seed(s), {self.runs} perturbed run(s)"
        )
        if self.ok:
            return head + ": all schedules agree (no order-dependence)"
        body = "\n".join(d.describe() for d in self.divergences)
        return f"{head}: {len(self.divergences)} divergence(s)\n{body}"


def _first_difference(
    a: Sequence[Tuple[float, str]], b: Sequence[Tuple[float, str]]
) -> Tuple[int, Optional[Tuple[float, str]], Optional[Tuple[float, str]]]:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i, x, y
    n = min(len(a), len(b))
    return (
        n,
        a[n] if n < len(a) else None,
        b[n] if n < len(b) else None,
    )


def _fingerprint(outcome: Outcome) -> Tuple[str, ...]:
    if outcome.status == "complete":
        return outcome.fingerprint or ()
    return (f"{outcome.status}: {outcome.error}",)


def detect(
    scenarios: Sequence[Scenario],
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
) -> RaceReport:
    """Run every scenario under every perturbation seed and compare
    against its unperturbed baseline."""
    report = RaceReport([s.name for s in scenarios], tuple(seeds))
    for scenario in scenarios:
        base_ctl = PerturbController()
        baseline = _fingerprint(scenario.run(base_ctl))
        for seed in seeds:
            ctl = PerturbController(seed)
            perturbed = _fingerprint(scenario.run(ctl))
            report.runs += 1
            if perturbed == baseline:
                continue
            idx, be, pe = _first_difference(base_ctl.log, ctl.log)
            report.divergences.append(Divergence(
                scenario.name, seed, idx, be, pe, baseline, perturbed,
            ))
    return report
