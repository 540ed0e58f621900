"""The benchmark's own tests: every workload at a tiny size, untraced and traced.

They check the output contract against ``BENCHMARK.json``: each end-to-end
metric is printed exactly once with its unit, the traced run emits every
per-layer metric, a failed operation makes the command exit non-zero,
only the session's own refusals count as rejected mutations, and the speed
probe scales a timing by the routine's mean time around it.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import run
import speed
import workloads
from repro.service.session import MutationError, SchedulingSession

CONTRACT = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8")
)

#: The registered workloads shrunk to a few seconds each; the shapes (generator,
#: plan, spill) stay the same.
TINY = {
    name: dataclasses.replace(
        workload,
        num_users=120,
        num_events=12,
        num_intervals=4,
        num_patterns=min(workload.num_patterns, 10),
        trace_mutations=8 * workload.trace_sessions,
        replica=(40, 6, 2),
    )
    for name, workload in workloads.WORKLOADS.items()
}


def run_tiny(capsys, workload: str, trace: int):
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace)],
        TINY,
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines[:-1], json.loads(lines[-1])


def test_contract_names_the_registered_workloads_and_metrics():
    assert [entry["name"] for entry in CONTRACT["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in CONTRACT["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in CONTRACT["per_layer"]] == run.per_layer_metrics()


@pytest.mark.parametrize("workload", list(TINY))
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_once_with_its_unit(capsys, workload, trace, section):
    code, table, result = run_tiny(capsys, workload, trace)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = {metric["name"]: metric["unit"] for metric in CONTRACT[section]}
    assert set(result["metrics"]) == set(declared)
    for name, unit in declared.items():
        assert result["metrics"][name]["unit"] == unit
        rows = [line.split() for line in table if line.split()[0] == name]
        assert len(rows) == 1 and rows[0][-1] == unit, name


def test_failed_operation_exits_nonzero(capsys, monkeypatch):
    solve = workloads.run_scheduler

    def failing(name, *args, **kwargs):
        if name == "HOR-I":
            raise RuntimeError("injected failure")
        return solve(name, *args, **kwargs)

    monkeypatch.setattr(workloads, "run_scheduler", failing)
    code, _, result = run_tiny(capsys, "zipf-dense", 0)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1


def _samples(table):
    header = next(line for line in table if line.startswith("# workload"))
    return json.loads(header.split("samples ", 1)[1])


def test_crash_inside_session_apply_is_a_failure_not_a_rejection(capsys, monkeypatch):
    def crashing(self, mutations):
        raise RuntimeError("injected crash")

    monkeypatch.setattr(SchedulingSession, "apply", crashing)
    code, table, result = run_tiny(capsys, "serve-zipf", 0)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert _samples(table)["mutate_rejected"] == 0


def test_session_rejections_are_counted_but_not_failures(capsys, monkeypatch):
    def rejecting(self, mutations):
        raise MutationError("injected rejection")

    monkeypatch.setattr(SchedulingSession, "apply", rejecting)
    code, table, result = run_tiny(capsys, "serve-zipf", 0)
    assert code == 0
    assert result["failed"] == 0
    assert _samples(table)["mutate_rejected"] == TINY["serve-zipf"].trace_mutations


def test_speed_probe_scales_by_the_mean_routine_time_around_an_operation(monkeypatch):
    routine_times = iter([0.02, 0.04])
    monkeypatch.setattr(speed.SpeedProbe, "time", lambda self: next(routine_times))
    probe = speed.SpeedProbe()
    assert probe.factor() == pytest.approx(speed.REFERENCE_S / 0.03)
    assert probe.last == 0.04
