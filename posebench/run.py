"""Pose benchmark: end-to-end ``MediationEngine.pose()`` latency.

Usage (from the repository root)::

    python3 posebench/run.py --workload record_link --seed 1 --seconds 15 --trace 0
    python3 posebench/run.py --workload all --seed 1 --seconds 15

One closed-loop client in one process sends the next pose only when the
previous one has returned or raised; the benchmark starts no load
threads of its own.  A run

1. builds the workload's deployment from ``--seed`` several times, in
   batches before and after the measured loop, and reports the median
   build time as ``setup_s``;
2. warms the interpreter up by posing for ``WARMUP_SECONDS`` on a
   throwaway deployment, then, on a fresh one, poses for ``--seconds``
   seconds (and at least the workload's ``min_poses``, at least 100 so
   ten samples lie beyond p90), timing each call to its return or raise,
   and reads the peak resident memory once ``min_poses`` are done;
3. replays the same poses (each distinct text once, where the text
   fixes the outcome) through a plain reference engine and requires
   every outcome to match (row count, order-insensitive row digest and
   aggregated loss for an answer; exception type for a refusal), then
   runs the workload's sanity and durability checks.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
untraced loop, then replays its poses on a fresh deployment with the
outside-in span recorder of :mod:`spans` installed, and prints the
per-layer metrics plus the tracing overhead (traced over untraced pose
time).  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every check passed.  ``--workload all`` runs every workload
untraced and traced, one child process each.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: A run stops posing after this long even below the workload's
#: ``min_poses``, so it ends well inside the three-minute limit.
MAX_LOOP_SECONDS = 40.0
#: Untimed posing on a throwaway deployment before the measured loop, so
#: lazy imports, compiled patterns and the allocator are settled.
WARMUP_SECONDS = 2.0
#: Builds per batch; ``setup_s`` is the median over three batches, taken
#: before the loop, after it and after the reference replay.  A build
#: takes 10 to 100 ms, and a shared host's speed can drift over tens of
#: seconds, so one build, or builds close together, mostly measure that.
SETUP_REPEATS = 5
#: Tolerance on recovered cumulative loss (it is re-folded from the log).
LOSS_TOLERANCE = 1e-12

END_TO_END_UNITS = {
    "pose_p50_ms": "ms",
    "pose_p90_ms": "ms",
    "poses_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


# -- outcomes ----------------------------------------------------------------


def outcome_of(result):
    """The comparable outcome of an answered pose."""
    digest = hashlib.sha256(
        "\n".join(sorted(repr(sorted(row.items())) for row in result.rows))
        .encode()
    ).hexdigest()
    return ("answered", len(result.rows), digest,
            repr(result.aggregated_loss))


def pose_once(engine, text, requester):
    """Pose one query; returns ``(outcome, result or None)``.

    A refusal (any :class:`~repro.errors.ReproError`) is a completed
    pose whose outcome is its exception type; any other exception is an
    error outcome, which never matches an expected one.
    """
    from repro.errors import ReproError

    try:
        result = engine.pose(text, requester=requester)
    except ReproError as error:
        return ("refused", type(error).__name__), None
    except Exception as error:  # noqa: BLE001 - counted as a failed pose
        return ("error", f"{type(error).__name__}: {error}"), None
    return outcome_of(result), result


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pose_loop(engine, stream, seconds=None, count=None, recorder=None,
              min_poses=0):
    """Pose from ``stream`` for ``seconds`` (or exactly ``count`` poses).

    Returns a dict of per-pose latencies (seconds), outcomes, the posed
    ``(text, requester)`` pairs, duplicates removed per answer, the
    loop's wall time, and the process's peak resident memory when
    ``min_poses`` poses were done (or when the loop ended, if sooner).
    The memory is read at a fixed amount of work because the program
    keeps a history that grows with every pose: read at the end, it
    would grow on a faster host, which poses more in the same time.
    """
    clock = time.perf_counter
    latencies, outcomes, posed, duplicates = [], [], [], []
    rss_mb = None
    started = clock()
    while True:
        elapsed = clock() - started
        if count is not None:
            if len(posed) >= count:
                break
        elif ((elapsed >= seconds and len(posed) >= min_poses)
              or elapsed >= MAX_LOOP_SECONDS):
            break
        text, requester = next(stream)
        if recorder is not None:
            recorder.seq = len(posed)
        cpu = time.thread_time()
        begin = clock()
        outcome, result = pose_once(engine, text, requester)
        end = clock()
        if recorder is not None:
            recorder.pose(len(posed), begin, end, time.thread_time() - cpu)
        latencies.append(end - begin)
        outcomes.append(outcome)
        posed.append((text, requester))
        duplicates.append(result.duplicates_removed if result else 0)
        if len(posed) == min_poses:
            rss_mb = peak_rss_mb()
    wall = clock() - started
    if rss_mb is None:
        rss_mb = peak_rss_mb()
    return {"latencies": latencies, "outcomes": outcomes, "posed": posed,
            "duplicates": duplicates, "wall": wall, "rss_mb": rss_mb}


def expected_outcomes(workload, seed, posed):
    """Outcomes of ``posed`` on the workload's reference deployment.

    Where a pose's text alone fixes its outcome, the reference poses each
    distinct text once and every pose of that text must match it.
    """
    reference = workload.build_reference(seed)
    try:
        if not workload.text_fixes_outcome:
            return [pose_once(reference.engine, text, requester)[0]
                    for text, requester in posed]
        by_text = {}
        for text, requester in posed:
            if text not in by_text:
                by_text[text] = pose_once(reference.engine, text,
                                          requester)[0]
        return [by_text[text] for text, _ in posed]
    finally:
        reference.close()


def count_mismatches(outcomes, expected):
    return sum(1 for got, want in zip(outcomes, expected)
               if got != want or got[0] == "error")


# -- deployment state the checks read ----------------------------------------


def cache_counts(engine):
    """Hit/miss counters of the plan, static and answer cache tiers."""
    counts = {}
    if engine.cache is not None:
        stats = engine.cache.stats()
        for tier in ("plan", "static"):
            counts[tier] = (stats[tier]["hits"], stats[tier]["misses"])
    answer = engine.warehouse.store_stats()
    counts["answer"] = (answer["hits"], answer["misses"])
    return counts


def hit_ratios(before, after):
    ratios = {}
    for tier in ("plan", "static", "answer"):
        if tier not in after:
            ratios[tier] = 0.0
            continue
        hits = after[tier][0] - before[tier][0]
        misses = after[tier][1] - before[tier][1]
        ratios[tier] = hits / (hits + misses) if hits + misses else 0.0
    return ratios


def audit_counts(engine):
    return {name: len(source.auditor.answered)
            for name, source in engine.sources.items()}


def sanity_checks(workload, run, ratios, audits_before, audits_after):
    """Workload-shape assertions; returns a list of failure messages."""
    problems = []
    poses = len(run["posed"])
    if workload.name == "fanout_settle":
        if ratios["answer"] <= 0.0:
            problems.append("fanout_settle: no answer-cache hits")
    elif ratios["answer"] > 0.01:
        problems.append(f"{workload.name}: answer-cache hit ratio "
                        f"{ratios['answer']:.3f}, expected about 0")
    if workload.name == "aggregate_audit":
        for name, count in audits_after.items():
            if count - audits_before[name] != poses:
                problems.append(
                    f"aggregate_audit: {name} audited "
                    f"{count - audits_before[name]} of {poses} poses")
    if workload.name == "record_link" and sum(run["duplicates"]) == 0:
        problems.append("record_link: no duplicates removed")
    return problems


def durability_check(workload, seed, deployment):
    """Recover the WAL into a fresh engine; compare with the live one."""
    journal = deployment.system.audit_journal()
    live_history = len(deployment.engine.history)
    live_loss = {requester: journal.cumulative_loss(requester)
                 for requester in journal.requesters()}
    deployment.close()
    fresh = workload.build(seed, wal_dir=deployment.wal_dir)
    try:
        fresh.system.recover()
        recovered = fresh.system.audit_journal()
        problems = []
        if len(fresh.engine.history) != live_history:
            problems.append(
                f"durability: recovered history has "
                f"{len(fresh.engine.history)} entries, live had "
                f"{live_history}")
        if set(recovered.requesters()) != set(live_loss):
            problems.append("durability: recovered requesters differ")
        for requester, loss in live_loss.items():
            if abs(recovered.cumulative_loss(requester) - loss) \
                    > LOSS_TOLERANCE:
                problems.append(
                    f"durability: cumulative loss of {requester} differs")
        return problems
    finally:
        fresh.close()


# -- one workload --------------------------------------------------------------


def build_timed(workload, seed, wal_dir):
    """Build one deployment; returns ``(deployment, build seconds)``."""
    gc.collect()
    started = time.perf_counter()
    deployment = workload.build(seed, wal_dir=wal_dir)
    return deployment, time.perf_counter() - started


def time_builds(workload, seed, scratch, batch):
    """Build and close ``SETUP_REPEATS`` deployments; returns their times."""
    times = []
    for index in range(SETUP_REPEATS):
        wal_dir = (str(scratch / f"wal-{batch}{index}")
                   if workload.durable else None)
        deployment, build_seconds = build_timed(workload, seed, wal_dir)
        deployment.close()
        times.append(build_seconds)
    return times


def warm_up(workload, seed, scratch):
    """Pose for ``WARMUP_SECONDS`` on a deployment that is then dropped."""
    deployment, _ = build_timed(
        workload, seed,
        str(scratch / "wal-warm") if workload.durable else None)
    try:
        stream = workload.poses(seed)
        started = time.perf_counter()
        while time.perf_counter() - started < WARMUP_SECONDS:
            pose_once(deployment.engine, *next(stream))
    finally:
        deployment.close()


def run_workload(name, seed, seconds, trace):
    """Run one workload; returns ``(result dict, human-readable lines)``."""
    from spans import ACCOUNTING_TOLERANCE, ENGINE, LAYERS
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    scratch = ROOT / ".posebench-tmp" / f"{name}-{seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    lines = []
    problems = []
    try:
        setup_times = time_builds(workload, seed, scratch, "a")
        warm_up(workload, seed, scratch)
        deployment, build_seconds = build_timed(
            workload, seed,
            str(scratch / "wal-run") if workload.durable else None)
        setup_times.append(build_seconds)
        engine = deployment.engine
        caches_before = cache_counts(engine)
        audits_before = audit_counts(engine)
        gc.collect()
        run = pose_loop(engine, workload.poses(seed), seconds=seconds,
                        min_poses=workload.min_poses)
        ratios = hit_ratios(caches_before, cache_counts(engine))
        problems += sanity_checks(workload, run, ratios, audits_before,
                                  audit_counts(engine))
        if workload.durable:
            problems += durability_check(workload, seed, deployment)
        deployment.close()
        del deployment, engine
        setup_times += time_builds(workload, seed, scratch, "b")

        poses = len(run["posed"])
        expected = expected_outcomes(workload, seed, run["posed"])
        setup_times += time_builds(workload, seed, scratch, "c")
        failed = count_mismatches(run["outcomes"], expected)
        refused = sum(1 for outcome in run["outcomes"]
                      if outcome[0] == "refused")
        latencies_ms = [value * 1000.0 for value in run["latencies"]]
        lines.append(
            f"workload={name} seed={seed} poses={poses} refused={refused} "
            f"failed={failed} error_ratio={failed / poses:.6f} "
            f"loop_wall_s={run['wall']:.3f}")

        if not trace:
            metrics = {
                "pose_p50_ms": statistics.median(latencies_ms),
                "pose_p90_ms": statistics.quantiles(
                    latencies_ms, n=10, method="inclusive")[-1],
                "poses_per_s": poses / run["wall"],
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": run["rss_mb"],
            }
            metrics = {key: (value, END_TO_END_UNITS[key])
                       for key, value in metrics.items()}
            lines.append(f"hit ratios: plan={ratios['plan']:.3f} "
                         f"static={ratios['static']:.3f} "
                         f"answer={ratios['answer']:.3f}")
        else:
            metrics, traced_failed = traced_pass(workload, seed, scratch,
                                                 run, lines)
            failed += traced_failed
            lines.append(f"{'layer':<32} {'calls/pose':>11} "
                         f"{'self ms/pose':>13} {'busy ms/pose':>13}")
            for layer in LAYERS + (ENGINE,):
                calls = metrics.get(f"{layer}.calls_per_pose", (None,))[0]
                shown = "-" if calls is None else f"{calls:.3f}"
                lines.append(
                    f"{layer:<32} {shown:>11} "
                    f"{metrics[f'{layer}.self_ms_per_pose'][0]:>13.3f} "
                    f"{metrics[f'{layer}.busy_ms_per_pose'][0]:>13.3f}")
            residual = metrics["trace.accounting_residual_pct"][0]
            if residual > ACCOUNTING_TOLERANCE * 100.0:
                problems.append(
                    f"accounting: posing-thread self times miss pose wall "
                    f"by {residual:.3f}%")
        for key, (value, unit) in metrics.items():
            lines.append(f"  {key} = {value:.6g} {unit}")
        for problem in problems:
            lines.append(f"CHECK FAILED: {problem}")
        if failed:
            lines.append(f"CHECK FAILED: {failed} pose outcome(s) did not "
                         "match the expected outcome")
        result = {
            "correct": failed == 0 and not problems,
            "attempted": poses,
            "failed": failed,
            "metrics": {key: {"value": value, "unit": unit}
                        for key, (value, unit) in metrics.items()},
        }
        return result, lines
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()  # only when no other run is using it


def traced_pass(workload, seed, scratch, untraced, lines):
    """Replay the untraced run's poses with the span recorder installed.

    Returns ``(per-layer metrics, outcomes that differ from the untraced
    run)``.
    """
    from spans import Recorder, layer_metrics

    deployment = workload.build(
        seed, wal_dir=str(scratch / "wal-traced") if workload.durable
        else None)
    try:
        engine = deployment.engine
        caches_before = cache_counts(engine)
        gc.collect()
        with Recorder() as recorder:
            traced = pose_loop(engine, workload.poses(seed),
                               count=len(untraced["posed"]),
                               recorder=recorder)
        ratios = hit_ratios(caches_before, cache_counts(engine))
    finally:
        deployment.close()
    failed = sum(1 for got, want in zip(traced["outcomes"],
                                        untraced["outcomes"])
                 if got != want)
    metrics, accounting = layer_metrics(recorder, len(traced["posed"]))
    for tier in ("plan", "static", "answer"):
        metrics[f"cache.{tier}_hit_ratio"] = (ratios[tier], "ratio")
    wall = accounting["pose_wall_s"]
    metrics["trace.accounting_residual_pct"] = (
        abs(accounting["posing_self_s"] - wall) / wall * 100.0, "%")
    metrics["trace.overhead_pct"] = (
        (sum(traced["latencies"]) / sum(untraced["latencies"]) - 1.0)
        * 100.0, "%")
    lines.append(f"traced replay: {len(traced['posed'])} poses, "
                 f"{failed} outcome(s) differ from the untraced run")
    return metrics, failed


# -- command line --------------------------------------------------------------


def run_all(seed, seconds):
    """Every workload untraced then traced, one child process each."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            child = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=False,
            )
            output = child.stdout.strip().splitlines()
            print("\n".join(output[:-1]))
            try:
                result = json.loads(output[-1])
            except (IndexError, ValueError):
                result = {"correct": False, "attempted": 0, "failed": 0,
                          "metrics": {}}
            combined["correct"] &= (child.returncode == 0
                                    and result["correct"])
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for key, value in result["metrics"].items():
                combined["metrics"][f"{name}.{key}"] = value
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"posebench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    elif args.workload in WORKLOADS:
        result, lines = run_workload(args.workload, args.seed, args.seconds,
                                     bool(args.trace))
        print("\n".join(lines))
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
