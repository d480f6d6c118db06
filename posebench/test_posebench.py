"""Tests for the pose benchmark's own code.

Run from the repository root: ``python3 -m pytest posebench -q``.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import spans  # noqa: E402
from spans import ENGINE, Recorder, Span, fold, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    MAX_AGE, MIN_AGE, SOURCE_PER_AGE, WIDE_EVERY, WORKLOADS, fanout_tables,
    pipeline_tables)

POSING, WORKER_A, WORKER_B = 1, 2, 3


def nested_spans():
    """One pose on the posing thread, two source calls on two workers."""
    return [
        Span(ENGINE, POSING, 0.0, 10.0, 0),
        Span("mediator.fragmenter", POSING, 0.5, 1.0, 0),
        Span("mediator.dispatch", POSING, 1.0, 8.0, 0),
        Span("mediator.integrator", POSING, 8.0, 9.5, 0),
        Span("source.results.untag_results", POSING, 8.2, 8.7, 0),
        Span("source.server", WORKER_A, 1.5, 6.0, 0),
        Span("relational.execute", WORKER_A, 2.0, 3.0, 0),
        Span("source.results.tag_results", WORKER_A, 3.0, 5.0, 0),
        Span("source.server", WORKER_B, 1.6, 7.5, 0),
        Span("relational.execute", WORKER_B, 2.0, 6.0, 0),
    ]


def self_times(items):
    return {(span.layer, span.thread): seconds
            for span, seconds, _ in fold(items)}


def test_fold_subtracts_only_same_thread_children():
    folded = self_times(nested_spans())
    assert folded[(ENGINE, POSING)] == pytest.approx(10.0 - 0.5 - 7.0 - 1.5)
    # The workers' spans overlap the dispatch wall but live on other
    # threads, so the dispatch keeps its whole wall as self time.
    assert folded[("mediator.dispatch", POSING)] == pytest.approx(7.0)
    assert folded[("mediator.integrator", POSING)] == pytest.approx(1.0)
    assert folded[("source.server", WORKER_A)] == pytest.approx(4.5 - 3.0)
    assert folded[("source.server", WORKER_B)] == pytest.approx(5.9 - 4.0)
    assert folded[("source.results.tag_results", WORKER_A)] == \
        pytest.approx(2.0)


def test_fold_subtracts_children_cpu_from_busy_time():
    items = [
        Span("source.server", WORKER_A, 0.0, 6.0, 0, cpu=3.0),
        Span("statdb.audit", WORKER_A, 1.0, 5.0, 0, cpu=2.5),
    ]
    busy = {span.layer: cpu for span, _, cpu in fold(items)}
    assert busy == pytest.approx({"source.server": 0.5,
                                  "statdb.audit": 2.5})


def recorder_with(items):
    recorder = Recorder()
    recorder.spans.extend(items)
    return recorder


def test_layer_metrics_account_for_pose_wall():
    recorder = recorder_with(nested_spans())
    recorder.thread_starts.extend([(POSING, 1.2, 0), (POSING, 1.3, 0),
                                   (WORKER_A, 2.0, 0)])
    metrics, accounting = layer_metrics(recorder, poses=1)
    assert accounting["posing_self_s"] == pytest.approx(10.0)
    assert accounting["pose_wall_s"] == pytest.approx(10.0)
    assert metrics["relational.execute.calls_per_pose"] == (2, "count")
    assert metrics["relational.execute.self_ms_per_pose"][0] == \
        pytest.approx(5000.0)
    assert metrics["mediator.engine.self_ms_per_pose"][0] == \
        pytest.approx(1000.0)
    # Dispatch overhead: its 7 s wall minus the 6 s (1.5 to 7.5) during
    # which a source runs; only the posing thread's starts inside the
    # dispatch count.
    assert metrics["mediator.dispatch.overhead_ms_per_pose"][0] == \
        pytest.approx(1000.0)
    assert metrics["mediator.dispatch.threads_per_pose"] == (2, "count")


def test_dispatch_overhead_of_sources_one_after_another():
    recorder = recorder_with([
        Span(ENGINE, POSING, 0.0, 10.0, 0),
        Span("mediator.dispatch", POSING, 1.0, 9.0, 0),
        Span("source.server", POSING, 1.5, 4.0, 0),
        Span("source.server", POSING, 4.5, 8.5, 0),
    ])
    metrics, _ = layer_metrics(recorder, poses=1)
    # 8 s of dispatch wall, 6.5 s of it inside a source.
    assert metrics["mediator.dispatch.overhead_ms_per_pose"][0] == \
        pytest.approx(1500.0)
    assert metrics["mediator.dispatch.threads_per_pose"] == (0, "count")


def test_span_outliving_its_parent_breaks_accounting():
    items = nested_spans()
    items[3] = Span("mediator.integrator", POSING, 8.0, 10.5, 0)
    _, accounting = layer_metrics(recorder_with(items), poses=1)
    assert abs(accounting["posing_self_s"] - accounting["pose_wall_s"]) \
        > spans.ACCOUNTING_TOLERANCE * accounting["pose_wall_s"]


def test_recorder_restores_every_entry_point():
    import importlib

    def current():
        found = []
        for _, module_path, owner_name, attribute in spans.ENTRY_POINTS:
            module = importlib.import_module(module_path)
            owner = getattr(module, owner_name) if owner_name else module
            found.append(vars(owner)[attribute])
        return found

    before = current()
    with Recorder():
        assert all(a is not b for a, b in zip(before, current()))
    assert all(a is b for a, b in zip(before, current()))


def first_poses(workload, seed, count=40):
    return list(itertools.islice(workload.poses(seed), count))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pose_stream_is_deterministic_per_seed(name):
    workload = WORKLOADS[name]
    assert first_poses(workload, 3) == first_poses(workload, 3)
    assert first_poses(workload, 3) != first_poses(workload, 4)


@pytest.mark.parametrize("make", [pipeline_tables, fanout_tables])
def test_tables_are_deterministic_per_seed(make):
    def rows(seed):
        return {name: list(table.rows_as_dicts())
                for name, table in make(seed).items()}

    assert rows(5) == rows(5)
    assert rows(5) != rows(6)


def test_every_age_holds_the_same_number_of_rows():
    for table in pipeline_tables(7).values():
        ages = [row["age"] for row in table.rows_as_dicts()]
        assert sorted(set(ages)) == list(range(MIN_AGE, MAX_AGE + 1))
        assert {ages.count(age) for age in set(ages)} == {SOURCE_PER_AGE}


@pytest.mark.parametrize("name", ["record_link", "aggregate_audit"])
def test_every_fifth_pipeline_pose_is_wide(name):
    def width(text):
        low, high = (int(part.split()[0]) for part in
                     text.split(">= ")[1].split("<= "))
        return high - low

    widths = [width(text) for text, _ in first_poses(WORKLOADS[name], 9)]
    wide = widths[WIDE_EVERY - 1]
    assert all(value < wide for index, value in enumerate(widths)
               if index % WIDE_EVERY != WIDE_EVERY - 1)
    assert all(value == wide for index, value in enumerate(widths)
               if index % WIDE_EVERY == WIDE_EVERY - 1)
