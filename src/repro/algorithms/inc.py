"""INC — the Incremental Updating algorithm (paper §3.2).

INC produces exactly the same schedule as ALG (Proposition 3) while
performing only a fraction of ALG's score recomputations and examining far
fewer assignments.  It rests on two ideas:

* **Incremental updating** (§3.2.1).  After a selection, the assignments of
  the selected interval keep their old scores and are only flagged as *not
  updated*.  A stale score can only over-estimate the true score
  (Proposition 1: adding events to an interval never increases the marginal
  gain of another event), so before the next selection only the stale
  assignments whose stale score is at least Φ — the best exact, valid score
  currently known — need to be recomputed.

* **Interval-based assignment organisation** (§3.2.2).  Assignments are kept
  in per-interval lists sorted by (possibly stale) score, and each interval
  carries ``M_t``, its best *updated and valid* assignment.  The bound Φ is
  the best ``M_t``; intervals whose top score is below Φ are skipped without
  touching their assignments, which is what shrinks the search space
  (Fig. 10b).

The tie-break (score, then event index, then interval index) is shared with
ALG so the two algorithms select identical assignments even under ties.

Under the batch scoring backend the incremental refresh itself is batched:
:meth:`IncScheduler._update_interval` collects the stale prefix that could
beat Φ (stale scores only over-estimate, so the prefix under the entry bound
is a superset of what the walk can recompute) and resolves it through the
engine's bulk :meth:`~repro.core.scoring.ScoringEngine.refresh_scores` API in
blocks, counting one update computation per score the walk actually consumes
— schedules, utilities and counters stay bit-identical to the scalar
reference (see :meth:`~repro.algorithms.base.BaseScheduler._stale_score_fetcher`).

On top of the paper's stale-score bound, the engine offers a *structural*
per-interval upper bound
(:meth:`~repro.core.scoring.ScoringEngine.interval_score_bound`): a sound
cap on any fresh marginal score in the interval, derived from the interest
structure rather than from previously computed scores.  When an interval
passes the stale-head check but its structural bound is still safely below
Φ, no entry in it can become the argmax and the whole refresh walk is
skipped.  The bound only pays where the user×event graph has repeated
structure, so the engine gates it on the mined class ratio: when the
interest-pattern classes number more than
:data:`~repro.core.scoring.PHI_BOUND_MAX_CLASS_RATIO` of the users (or their
pattern matrix is over the memory budget) the bound is declined, returns
``+inf`` and INC makes the paper's own refresh walks.  The gate and the bound
are engine-side and depend only on instance data and engine state, so
schedules, utilities, scores and counter totals remain bit-identical across
scoring backends, storage tiers and scoring plans — the bound only lowers the
number of score recomputations performed.  Construct the scheduler with
``use_interval_bounds=False`` to disable the structural check (the benchmark
baseline).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.algorithms.base import AssignmentEntry, BaseScheduler, better_candidate
from repro.core.schedule import Schedule

Candidate = Tuple[float, int, int]


class IncScheduler(BaseScheduler):
    """Incremental Updating algorithm (INC); same output as ALG, fewer computations."""

    name = "INC"

    def __init__(self, *args, use_interval_bounds: bool = True, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Apply the engine's structural per-interval score bound as a
        #: second-chance interval skip.  Sound, so the schedule is unchanged;
        #: disabling it only serves as the benchmark baseline.
        self._use_interval_bounds = bool(use_interval_bounds)

    def _run(self, k: int) -> Schedule:
        instance = self.instance
        counter = self.counter
        schedule = self._start_schedule()

        num_intervals = instance.num_intervals

        # ------------------------------------------------------------------
        # Initialisation: generate all assignments (one batched evaluation per
        # interval), grouped and sorted per interval.
        # ------------------------------------------------------------------
        lists = self._generate_all_entries(initial=True)

        # has_stale[i] — interval i contains at least one not-updated assignment.
        has_stale = [False] * num_intervals
        # tops[i] — best *updated and valid* candidate of interval i (M_t in the paper).
        tops: List[Optional[Candidate]] = [
            self._find_top_updated_valid(lists[i], schedule) for i in range(num_intervals)
        ]

        iterations = 0
        while len(schedule) < k:
            iterations += 1

            # Bound Φ: the best exact, valid candidate currently known.
            phi: Optional[Candidate] = None
            for candidate in tops:
                counter.count_examined()
                phi = better_candidate(phi, candidate)

            # Incremental updates: only stale assignments that could beat Φ.
            for interval_index in range(num_intervals):
                if not has_stale[interval_index]:
                    continue
                entries = lists[interval_index]
                if not entries:
                    has_stale[interval_index] = False
                    continue
                counter.count_examined()  # peek at the interval head (M_t check)
                if phi is not None and entries[0].score < phi[0] - self.engine.score_noise_tolerance(interval_index):
                    # Every stale score in this interval is below Φ by more
                    # than the floating-point noise of a score, hence so is
                    # every true score (Proposition 1): skip the interval.
                    continue
                if (
                    phi is not None
                    and self._use_interval_bounds
                    and self.engine.interval_score_bound(interval_index)
                    < phi[0] - 4.0 * self.engine.score_noise_tolerance(interval_index)
                ):
                    # Second chance: the structural bound caps every fresh
                    # score in this interval, so even after recomputation no
                    # entry here can beat Φ.  The 4× noise margin guarantees
                    # no tie candidate (within one score's rounding of Φ) can
                    # hide behind the skip, keeping the tie-break — and hence
                    # the schedule — identical.
                    counter.bump("phi_bound_interval_skips")
                    continue
                phi = self._update_interval(
                    interval_index, lists, tops, schedule, phi
                )
                has_stale[interval_index] = any(not entry.updated for entry in lists[interval_index])

            if phi is None:
                break  # No valid assignment remains anywhere.

            score, event_index, interval_index = phi
            self._select_assignment(schedule, event_index, interval_index, score)

            # The selected interval's scores all become stale.
            selected_entries = lists[interval_index]
            lists[interval_index] = [
                entry for entry in selected_entries if entry.event_index != event_index
            ]
            for entry in lists[interval_index]:
                entry.updated = False
            has_stale[interval_index] = bool(lists[interval_index])
            tops[interval_index] = None

            # Other intervals: the selected event's assignments become invalid.
            # Only the interval tops that referenced it must be recomputed now;
            # the list entries themselves are dropped lazily.
            for other_interval in range(num_intervals):
                if other_interval == interval_index:
                    continue
                top = tops[other_interval]
                if top is not None and top[1] == event_index:
                    tops[other_interval] = self._find_top_updated_valid(
                        lists[other_interval], schedule
                    )

        self.note("iterations", iterations)
        return schedule

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #
    def _update_interval(
        self,
        interval_index: int,
        lists: List[List[AssignmentEntry]],
        tops: List[Optional[Candidate]],
        schedule: Schedule,
        phi: Optional[Candidate],
    ) -> Optional[Candidate]:
        """Refresh the stale assignments of one interval that could beat Φ.

        Walks the interval's score-sorted list from the top; every stale entry
        whose (stale) score is at least Φ (minus the engine's per-score
        floating-point noise bound — stale scores are upper bounds only up to
        rounding, see :meth:`~repro.core.scoring.ScoringEngine.score_noise_tolerance`)
        is recomputed.  The walk stops at the first entry below that cut —
        all deeper entries are below it as well.  Returns the possibly-improved
        Φ.

        Under the batch backend the stale prefix above the *incoming* Φ is
        resolved through the bulk refresh API: Φ only rises during the walk,
        so that prefix is a superset of what the walk can consume, and the
        fetcher counts exactly the consumed scores.
        """
        counter = self.counter
        checker = self.checker
        tolerance = self.engine.score_noise_tolerance(interval_index)
        entries = lists[interval_index]
        fetch = self._stale_score_fetcher(
            interval_index,
            self._stale_prefix(interval_index, entries, schedule, phi),
        )
        kept: List[AssignmentEntry] = []
        stop_index = len(entries)

        for position, entry in enumerate(entries):
            counter.count_examined()
            if phi is not None and entry.score < phi[0] - tolerance:
                stop_index = position
                break
            if schedule.is_scheduled(entry.event_index) or not checker.is_feasible(
                entry.event_index, interval_index
            ):
                continue  # drop invalid entries encountered in the prefix
            if not entry.updated:
                entry.score = fetch(entry.event_index)
                entry.updated = True
            candidate: Candidate = (entry.score, entry.event_index, entry.interval_index)
            tops[interval_index] = better_candidate(tops[interval_index], candidate)
            phi = better_candidate(phi, candidate)
            kept.append(entry)

        kept.extend(entries[stop_index:])
        kept.sort(key=AssignmentEntry.sort_key)
        lists[interval_index] = kept
        return phi

    def _stale_prefix(
        self,
        interval_index: int,
        entries: List[AssignmentEntry],
        schedule: Schedule,
        phi: Optional[Candidate],
    ) -> List[int]:
        """Stale, valid events in the prefix that could beat the incoming Φ.

        A superset (in walk order) of the entries :meth:`_update_interval`
        can recompute: the walk's Φ only ever rises, so it stops at or before
        the first entry below the incoming bound.  Pure bookkeeping — no
        counter side effects.  Skipped under the scalar backend, where the
        fetcher computes pairs one at a time anyway.
        """
        if not self.engine.is_bulk:
            return []
        checker = self.checker
        tolerance = self.engine.score_noise_tolerance(interval_index)
        bound = None if phi is None else phi[0]
        pending: List[int] = []
        for entry in entries:
            if bound is not None and entry.score < bound - tolerance:
                break
            if entry.updated:
                continue
            if schedule.is_scheduled(entry.event_index) or not checker.is_feasible(
                entry.event_index, interval_index
            ):
                continue
            pending.append(entry.event_index)
        return pending

    def _find_top_updated_valid(
        self, entries: List[AssignmentEntry], schedule: Schedule
    ) -> Optional[Candidate]:
        """First updated & valid entry of a score-sorted list (``getTopAssgn``)."""
        counter = self.counter
        checker = self.checker
        for entry in entries:
            counter.count_examined()
            if not entry.updated:
                continue
            if schedule.is_scheduled(entry.event_index):
                continue
            if not checker.is_feasible(entry.event_index, entry.interval_index):
                continue
            return (entry.score, entry.event_index, entry.interval_index)
        return None
