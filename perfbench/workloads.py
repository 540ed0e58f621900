"""The benchmark's workloads: instance builders, set-up, service trace and solve rounds.

Every workload runs the same three phases on its own instance, so each
end-to-end metric exists on each workload, but the workloads weight the
phases differently (see ``RATIONALE.md``):

1. **set-up** — generate the instance from the seed (and spill it to a
   memory-mapped NPZ on ``patterned-mmap``), start the service, load the
   instance and run the cold resolve;
2. **service trace** — a closed loop with one client: a fixed-length
   mutation trace drawn by ``bench_serve_load.TraceGenerator``, with a
   ``resolve`` and a ``get-schedule`` after every four (or eight) mutations;
3. **solve rounds** — ``run_scheduler`` for ALG, INC, HOR and HOR-I, one
   of each per round in a rotating order.

Phases 2 and 3 share one measured window of ``--seconds`` (:func:`run_window`).
Every timing is scaled to the reference host's speed by a
:class:`speed.SpeedProbe` run next to it.

Each phase checks its outputs; :class:`Ledger` counts operations attempted
and failed.
"""

from __future__ import annotations

import dataclasses
import gc
import resource
import shutil
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from benchmarks.bench_serve_load import TraceGenerator
from repro.algorithms.registry import run_scheduler
from repro.core.errors import SolverError
from repro.core.execution import ExecutionConfig
from repro.core.instance import SESInstance
from repro.core.instance_io import spill_instance
from repro.datasets.synthetic import generate_zipfian
from repro.service import ServiceClient, start_local_service
from repro.service.session import AddEvent, MutationError
from speed import SpeedProbe
from tracing import traced

#: The timed algorithms, and the pairs the paper proves schedule-identical.
ALGORITHMS = ("ALG", "INC", "HOR", "HOR-I")
EQUIVALENT = (("INC", "ALG"), ("HOR-I", "HOR"))

#: Small replicas per run whose ALG utility is compared with the EXACT optimum.
REPLICAS = 8

#: Solve rounds every run makes, however long its service trace took.
MIN_SOLVE_ROUNDS = 10


@dataclass(frozen=True)
class Workload:
    """One named workload: an instance family, its execution plan and its trace length."""

    name: str
    why: str
    generator: str
    num_users: int
    num_events: int
    num_intervals: int
    trace_mutations: int
    #: Sessions the trace is split over, each with its own generator seed.
    trace_sessions: int = 1
    #: One-mutation batches between two resolves of the trace.
    mutations_per_resolve: int = 4
    num_patterns: int = 0
    plan: str = "direct"
    spill: bool = False
    #: (users, events, intervals) of the replica EXACT solves.
    replica: Tuple[int, int, int] = (300, 8, 3)

    def __post_init__(self) -> None:
        if self.trace_mutations % (self.mutations_per_resolve * self.trace_sessions):
            raise ValueError(
                f"{self.name}: the trace must split into whole cycles per session"
            )

    @property
    def k(self) -> int:
        # The service trace resolves with k = |T|, which TraceGenerator's
        # lock cap is sized for; the solve rounds use the same k.
        return self.num_intervals

    @property
    def execution(self) -> ExecutionConfig:
        return ExecutionConfig(plan=self.plan)

    def build(self, seed: int, sizes: Optional[Tuple[int, int, int]] = None) -> SESInstance:
        """The workload's instance for ``seed`` (or a replica of other sizes)."""
        users, events, intervals = sizes or (
            self.num_users,
            self.num_events,
            self.num_intervals,
        )
        if self.generator == "zipf":
            return generate_zipfian(
                num_users=users, num_events=events, num_intervals=intervals, seed=seed
            )
        return patterned_instance(seed, users, self.num_patterns, events, intervals)

    def trace_generator(self, seed: int, rng, instance: SESInstance) -> TraceGenerator:
        """The service trace's mutation generator for ``instance``, drawing from ``rng``."""
        sizes = (instance.num_events, instance.num_intervals, instance.num_users)
        if self.generator == "zipf":
            return TraceGenerator(rng, *sizes)
        members = pattern_members(seed, instance.num_users, self.num_patterns)
        return PatternedTraceGenerator(rng, *sizes, members, self.num_patterns)

    def params(self) -> Dict[str, object]:
        return {
            "generator": self.generator,
            "num_users": self.num_users,
            "num_events": self.num_events,
            "num_intervals": self.num_intervals,
            "num_patterns": self.num_patterns,
            "k": self.k,
            "plan": self.plan,
            "storage": "mmap" if self.spill else "dense",
            "trace_mutations": self.trace_mutations,
            "trace_sessions": self.trace_sessions,
            "mutations_per_resolve": self.mutations_per_resolve,
            "replica": list(self.replica),
        }


def patterned_instance(
    seed: int, num_users: int, num_patterns: int, num_events: int, num_intervals: int
) -> SESInstance:
    """Users drawn from ``num_patterns`` rows of interest, activity and competing interest.

    Activity decays geometrically from 1 to 0.05 over the intervals, and
    there are two competing events per interval.
    """
    rng = np.random.default_rng(seed)
    num_competing = 2 * num_intervals
    interest = rng.random((num_patterns, num_events))
    activity = rng.random((num_patterns, num_intervals)) * np.geomspace(
        1.0, 0.05, num_intervals
    )
    competing = rng.random((num_patterns, num_competing))
    members = pattern_members(seed, num_users, num_patterns)
    return SESInstance.from_arrays(
        interest=interest[members],
        activity=activity[members],
        competing_interest=competing[members],
        competing_interval_indices=[index % num_intervals for index in range(num_competing)],
        name=f"patterned-{num_users}x{num_events}-p{num_patterns}",
    )


def pattern_members(seed: int, num_users: int, num_patterns: int) -> np.ndarray:
    """The pattern row each user of a patterned instance follows."""
    return np.random.default_rng([seed, 3]).integers(0, num_patterns, num_users)


class PatternedTraceGenerator(TraceGenerator):
    """The service trace on a patterned population: announced events follow the patterns.

    A new event draws one interest value per pattern and gives it to every
    member, as the instance's own events do.  With the base generator's
    per-user draw, the first ``AddEvent`` would make every user its own
    pattern class, and the share of cheap resolves would hinge on how early
    a seed draws one (3-38 % of a trace's resolves over six seeds).
    """

    def __init__(self, rng, num_events, num_intervals, num_users, members, num_patterns):
        super().__init__(rng, num_events, num_intervals, num_users)
        self.members, self.num_patterns = members, num_patterns

    def next_mutation(self):
        mutation = super().next_mutation()
        if isinstance(mutation, AddEvent):
            values = self.rng.random(self.num_patterns)[self.members]
            mutation = dataclasses.replace(mutation, interest=tuple(values.tolist()))
        return mutation


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="zipf-dense",
            why="paper Zip dataset on dense rows: the score kernel and selection loops "
            "dominate, every user is its own pattern, so the Phi bound and mining skip little",
            generator="zipf",
            num_users=2000,
            num_events=200,
            num_intervals=40,
            # A zipf-dense resolve costs ~0.25 s, so the trace resolves every
            # 8 mutations: 400 mutations keep p98 inside the slow AddEvent
            # cluster, which 200 mutations missed on one seed in ten.
            trace_mutations=400,
            trace_sessions=2,
            mutations_per_resolve=8,
        ),
        Workload(
            name="patterned-mmap",
            why="4000 users from 100 patterns, memory-mapped NPZ, blocked plan: "
            "store row streaming dominates and structure mining pays off",
            generator="patterned",
            num_users=4000,
            num_events=120,
            num_intervals=24,
            num_patterns=100,
            plan="blocked",
            spill=True,
            trace_mutations=480,
            trace_sessions=6,
        ),
        Workload(
            name="serve-zipf",
            why="online service over the wire: 600-mutation closed-loop trace with a "
            "resolve every 4 mutations; session apply, warm resolve and wire costs dominate",
            generator="zipf",
            num_users=2000,
            num_events=120,
            num_intervals=24,
            trace_mutations=600,
        ),
    )
}


#: What :meth:`Ledger.attempt` returns for an operation the program refused.
REJECTED = object()


def is_rejection(error: Exception) -> bool:
    """Whether a service error is the session refusing a mutation batch.

    The server answers every exception with ``"<TypeName>: message"`` and the
    client raises each as :class:`SolverError`, so only the session's own
    :class:`MutationError` name marks a real rejection; any other error (an
    unknown session, a crash inside ``apply``) is a failure.
    """
    return isinstance(error, SolverError) and f"{MutationError.__name__}: " in str(error)


class Ledger:
    """Operations attempted and failed, and the checks that did not hold."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def attempt(self, label: str, func, *args, rejects=None, **kwargs):
        """Run one operation; an exception counts as a failure and yields ``None``.

        An exception the predicate ``rejects`` accepts is a refusal the
        workload expects: it is not a failure and yields :data:`REJECTED`.
        """
        self.attempted += 1
        try:
            return func(*args, **kwargs)
        except Exception as error:  # staticcheck: allow(broad-except) -- the traceback is kept in problems and printed to stderr, and the failure is counted in the result line
            if rejects is not None and rejects(error):
                return REJECTED
            self.fail(f"{label} raised:\n{traceback.format_exc()}")
            return None

    def check(self, holds: bool, message: str) -> None:
        if not holds:
            self.fail(f"check failed: {message}")

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


@dataclass
class Service:
    """A live set-up: the solve instance and a loaded, cold-resolved service session.

    ``generated`` is the in-memory instance the sessions are loaded from; it
    is ``instance`` itself unless the workload spills to a memory map.
    """

    instance: SESInstance
    generated: SESInstance
    handle: object
    client: ServiceClient
    session_id: Optional[str]
    scratch: Optional[str] = None

    def close(self) -> None:
        self.client.close()
        self.handle.stop()
        if self.scratch is not None:
            shutil.rmtree(self.scratch, ignore_errors=True)


def set_up(workload: Workload, seed: int, scratch_root: Path, ledger: Ledger) -> Service:
    """Reach a solvable state: instance, optional spill, service, load and cold resolve."""
    generated = workload.build(seed)
    instance, scratch = generated, None
    if workload.spill:
        scratch = tempfile.mkdtemp(prefix="spill-", dir=scratch_root)
        instance = spill_instance(generated, scratch)
    handle = start_local_service("127.0.0.1", 0, execution=workload.execution)
    client = ServiceClient(handle.address)
    session_id = load_session(workload, seed, client, generated, ledger)
    return Service(instance, generated, handle, client, session_id, scratch)


def load_session(
    workload: Workload, seed: int, client: ServiceClient, generated: SESInstance, ledger: Ledger
) -> Optional[str]:
    """Load a new INC session and cold-resolve it; its id, or ``None`` if loading failed.

    The session keeps its matrices in memory whatever the solve storage, so
    it is loaded from the generated (dense) instance.  After a failed load,
    every operation on the ``None`` session fails and is counted.
    """
    session_id = ledger.attempt(
        "load-instance", client.load_instance, generated, algorithm="INC", seed=seed
    )
    if session_id is not None:
        ledger.attempt("cold resolve", client.resolve, session_id, workload.k)
    return session_id


@dataclass
class TraceOutcome:
    """Latencies and counts of the service trace.

    ``mutate``, ``resolve``, ``query`` and ``elapsed`` are in reference
    seconds (see :mod:`speed`); ``wall`` holds the same samples as measured.
    """

    mutate: List[float] = field(default_factory=list)
    resolve: List[float] = field(default_factory=list)
    query: List[float] = field(default_factory=list)
    wall: Dict[str, List[float]] = field(
        default_factory=lambda: {"mutate": [], "resolve": [], "query": []}
    )
    rejected: int = 0
    elapsed: float = 0.0
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def operations(self) -> int:
        return len(self.mutate) + len(self.resolve) + len(self.query)


class TraceReplay:
    """The seed's mutation trace, replayed cycle by cycle.

    A cycle is ``mutations_per_resolve`` one-mutation ``mutate`` batches, a ``resolve`` and a
    ``get-schedule``.  The trace is split evenly over ``trace_sessions``
    sessions, each with its own generator seed: the set-up's session first,
    then fresh ones loaded (untimed) from the generated instance.  When a
    session's share ends, its last resolve is checked against a cold solve.
    The speed probe runs after every cycle, and scales the cycle's samples.
    """

    def __init__(
        self,
        workload: Workload,
        seed: int,
        service: Service,
        ledger: Ledger,
        probe: SpeedProbe,
        tracer=None,
    ):
        self.workload, self.seed, self.service = workload, seed, service
        self.ledger, self.probe, self.tracer = ledger, probe, tracer
        self.outcome = TraceOutcome()
        self.total_cycles = workload.trace_mutations // workload.mutations_per_resolve
        self.cycles_per_session = self.total_cycles // workload.trace_sessions
        self.cycles = 0
        self.session_id = service.session_id
        self.generator = self._generator(0)
        self.last_reply = None

    def _generator(self, part: int) -> TraceGenerator:
        rng = np.random.default_rng([self.seed, 1, part])
        return self.workload.trace_generator(self.seed, rng, self.service.instance)

    @property
    def done(self) -> bool:
        return self.cycles >= self.total_cycles

    def _label(self, label: str, index: int) -> None:
        if self.tracer is not None:
            self.tracer.request = f"serve:{label}:{index}"

    def _timed(self, kind: str, label: str, func, *args, rejects=None):
        samples = self.outcome.wall[kind]
        self._label(label, len(samples))
        begin = time.perf_counter()
        reply = self.ledger.attempt(label, func, *args, rejects=rejects)
        samples.append(time.perf_counter() - begin)
        return reply

    def _mutate(self) -> None:
        mutation = self.generator.next_mutation()
        reply = self._timed(
            "mutate",
            "mutate",
            self.service.client.mutate,
            self.session_id,
            [mutation],
            rejects=is_rejection,
        )
        if reply is REJECTED:
            # The session refused the batch (a lock or removal that breaks a
            # constraint): realistic traffic, deterministic per seed, not a failure.
            self.outcome.rejected += 1
            self.generator.forget(mutation)
        elif reply is not None:
            self.generator.record(mutation)

    def cycle(self) -> None:
        """Replay one cycle, then close the session's share if it ends here."""
        client, k, outcome = self.service.client, self.workload.k, self.outcome
        first = {kind: len(samples) for kind, samples in outcome.wall.items()}
        with traced(self.tracer) if self.tracer is not None else nullcontext():
            begin = time.perf_counter()
            for _ in range(self.workload.mutations_per_resolve):
                self._mutate()
            self.last_reply = self._timed("resolve", "resolve", client.resolve, self.session_id, k)
            self._timed("query", "get-schedule", client.get_schedule, self.session_id)
            elapsed = time.perf_counter() - begin
            if self.tracer is not None:
                self.tracer.request = None
        factor = self.probe.factor()
        outcome.elapsed += elapsed * factor
        for kind, scaled in (
            ("mutate", outcome.mutate),
            ("resolve", outcome.resolve),
            ("query", outcome.query),
        ):
            scaled.extend(wall * factor for wall in outcome.wall[kind][first[kind]:])
        self.cycles += 1
        if self.cycles % self.cycles_per_session == 0:
            self._end_session()
            if not self.done:
                self._start_session(self.cycles // self.cycles_per_session)

    def _end_session(self) -> None:
        client = self.service.client
        status = self.ledger.attempt("session-status", client.session_status, self.session_id)
        for key, value in (status or {}).get("stats", {}).items():
            self.outcome.stats[key] = self.outcome.stats.get(key, 0) + value
        if self.last_reply is None:
            self.ledger.fail("the service trace produced no resolve reply to check")
            return
        check_resolve_matches_cold(
            self.workload, self.seed, self.service, self.session_id, self.last_reply, self.ledger
        )

    def _start_session(self, part: int) -> None:
        self.generator = self._generator(part)
        self.session_id = load_session(
            self.workload, self.seed, self.service.client, self.service.generated, self.ledger
        )


def check_resolve_matches_cold(
    workload: Workload,
    seed: int,
    service: Service,
    session_id: str,
    reply: Dict[str, object],
    ledger: Ledger,
) -> None:
    """The last resolve equals a cold solve of the mutated instance with the same locks."""
    # The server exposes no public accessor for a session object; the
    # benchmark runs it in-process, so it reads the session directly.
    session = service.handle.server._session(session_id)
    instance = session.instance()
    locked = sorted(
        (instance.event_index(event_id), instance.interval_index(interval_id))
        for event_id, interval_id in session.locks().items()
    )
    cold = ledger.attempt(
        "cold solve",
        run_scheduler,
        session.algorithm,
        instance,
        workload.k,
        seed=seed,
        execution=workload.execution,
        locked=locked,
    )
    if cold is None:
        return
    cold_schedule = {
        instance.events[event].id: instance.intervals[interval].id
        for event, interval in cold.schedule.as_dict().items()
    }
    ledger.check(
        cold_schedule == reply["schedule"] and cold.utility == reply["utility"],
        f"final resolve (utility {reply['utility']!r}) differs from the cold "
        f"{session.algorithm} solve (utility {cold.utility!r})",
    )


class SolveRounds:
    """Interleaved solve rounds of ALG, INC, HOR and HOR-I on the workload instance.

    Each round runs every algorithm once, starting one algorithm later than
    the previous round.  The speed probe runs after every solve, and
    ``times`` holds the solve times in reference seconds (``wall`` as
    measured).  With a tracer, every algorithm runs once untraced and once
    traced per round, so the traced run can report its own overhead, and the
    traced solve also counts the minor page faults it takes.
    """

    def __init__(
        self,
        workload: Workload,
        instance: SESInstance,
        ledger: Ledger,
        probe: SpeedProbe,
        tracer=None,
    ):
        self.workload, self.instance, self.ledger = workload, instance, ledger
        self.probe, self.tracer = probe, tracer
        self.times: Dict[str, List[float]] = {name: [] for name in ALGORITHMS}
        self.wall: Dict[str, List[float]] = {name: [] for name in ALGORITHMS}
        self.traced_times: Dict[str, List[float]] = {name: [] for name in ALGORITHMS}
        self.minor_faults: Dict[str, List[int]] = {name: [] for name in ALGORITHMS}
        self.results: Dict[str, object] = {}
        self.counters: Dict[str, Dict[str, int]] = {}
        self.rounds = 0

    def _solve(self, name: str):
        """One solve: its result, wall time and time in reference seconds."""
        gc.collect()
        begin = time.perf_counter()
        result = self.ledger.attempt(
            name,
            run_scheduler,
            name,
            self.instance,
            self.workload.k,
            execution=self.workload.execution,
        )
        wall = time.perf_counter() - begin
        return result, wall, wall * self.probe.factor()

    def round(self) -> None:
        shift = self.rounds % len(ALGORITHMS)
        round_results = {}
        for name in ALGORITHMS[shift:] + ALGORITHMS[:shift]:
            result, wall, elapsed = self._solve(name)
            if result is None:
                continue
            self.times[name].append(elapsed)
            self.wall[name].append(wall)
            round_results[name] = result
            if self.tracer is not None:
                self.tracer.request = f"solve:{name}:{self.rounds}"
                faults = _minor_faults()
                with traced(self.tracer):
                    traced_result, _, elapsed = self._solve(name)
                faults = _minor_faults() - faults
                self.tracer.request = None
                if traced_result is not None:
                    self.traced_times[name].append(elapsed)
                    self.minor_faults[name].append(faults)
                    self.counters.setdefault(name, traced_result.counters)
        self._check(round_results)
        self.rounds += 1

    def _check(self, round_results: Dict[str, object]) -> None:
        """Equivalent algorithms agree, and every round repeats the first."""
        for name, reference in EQUIVALENT:
            if name in round_results and reference in round_results:
                self.ledger.check(
                    _same(round_results[name], round_results[reference]),
                    f"{name} and {reference} returned different schedules",
                )
        for name, result in round_results.items():
            first = self.results.setdefault(name, result)
            self.ledger.check(_same(result, first), f"{name} is not deterministic across rounds")


def run_window(
    workload: Workload,
    seed: int,
    service: Service,
    seconds: float,
    ledger: Ledger,
    probe: SpeedProbe,
    tracer=None,
):
    """The measured window: the whole service trace, then solve rounds until ``seconds``.

    The trace has a fixed length; the solve rounds fill the rest of the
    window, with at least :data:`MIN_SOLVE_ROUNDS` rounds.
    """
    trace = TraceReplay(workload, seed, service, ledger, probe, tracer)
    solves = SolveRounds(workload, service.instance, ledger, probe, tracer)
    started = time.perf_counter()
    while not trace.done:
        trace.cycle()
    while solves.rounds < MIN_SOLVE_ROUNDS or time.perf_counter() - started < seconds:
        solves.round()
    return trace.outcome, solves


def _minor_faults() -> int:
    """Minor page faults of this process so far: pages the kernel mapped in and zeroed."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _same(left, right) -> bool:
    return left.utility == right.utility and left.schedule.as_dict() == right.schedule.as_dict()


def quality(
    workload: Workload, seed: int, instance: SESInstance, solves: SolveRounds, ledger: Ledger
) -> Dict[str, float]:
    """Utility ratios, plus the non-degenerate guard on the workload instance."""
    alg, hor = solves.results.get("ALG"), solves.results.get("HOR")
    ratios: Dict[str, float] = {}
    if alg is None or hor is None:
        ledger.fail("no ALG or HOR result to compare")
        return ratios
    ratios["quality.hor_vs_alg"] = hor.utility / alg.utility
    rand = ledger.attempt(
        "RAND", run_scheduler, "RAND", instance, workload.k, seed=seed, execution=workload.execution
    )
    ledger.check(
        alg.utility < float(instance.activity.sum()),
        f"degenerate instance: ALG utility {alg.utility} reaches the activity sum",
    )
    ledger.check(
        rand is not None and rand.utility != alg.utility,
        "degenerate instance: RAND utility equals ALG utility",
    )
    # One small replica's ratio swings by ~10 % from seed to seed; the
    # ratio of totals over several replicas is steady enough to bound.
    totals = {"ALG": 0.0, "EXACT": 0.0}
    for replica_seed in np.random.SeedSequence([seed, 2]).generate_state(REPLICAS):
        replica = workload.build(int(replica_seed), workload.replica)
        k = workload.replica[2]
        exact = ledger.attempt("EXACT", run_scheduler, "EXACT", replica, k)
        small = ledger.attempt("ALG", run_scheduler, "ALG", replica, k)
        if exact is None or small is None:
            return ratios
        ledger.check(
            small.utility <= exact.utility * (1.0 + 1e-12),
            "ALG beats the EXACT optimum on a replica",
        )
        totals["ALG"] += small.utility
        totals["EXACT"] += exact.utility
    ratios["quality.alg_vs_exact"] = totals["ALG"] / totals["EXACT"]
    return ratios


__all__ = [
    "ALGORITHMS",
    "Ledger",
    "Service",
    "WORKLOADS",
    "Workload",
    "PatternedTraceGenerator",
    "pattern_members",
    "patterned_instance",
    "quality",
    "run_window",
    "set_up",
]
