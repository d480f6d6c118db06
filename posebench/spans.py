"""Outside-in span recording and self-time folding for the traced run.

The recorder wraps public entry points of the program's layers from the
outside (no instrumentation inside ``src/``) and keeps one tuple per call
in memory: ``(layer, thread, start, end, pose seq)``.  The client has one
pose in flight at a time, so every span recorded while pose ``seq`` runs
belongs to it, including spans on the dispatcher's worker threads.

Self time is computed per thread: a span's duration minus the part of it
covered by its direct children on the same thread.  Worker-thread layers
overlap each other and the posing thread, so only posing-thread self
times are summed against pose wall time.  Each span also carries the CPU
time its thread spent inside it; a layer's *busy* time is that CPU time
minus its children's.  On the dispatcher's workers, self (wall) time
minus busy time is mostly time spent waiting for the interpreter lock.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict, namedtuple

Span = namedtuple("Span", "layer thread start end seq cpu",
                  defaults=(0.0,))

#: The layer name of the pose itself (the client's ``pose()`` call).
ENGINE = "mediator.engine"

#: ``(layer, module path, owner name, attribute)`` for every wrapped entry
#: point.  An owner is a class, or a module whose global name the caller
#: looks up at call time (``tag_results`` and ``execute`` as imported by
#: the source server, ``untag_results`` as imported by the integrator).
ENTRY_POINTS = (
    ("mediator.fragmenter", "repro.mediator.fragmenter",
     "QueryFragmenter", "fragment"),
    ("analysis.plancheck", "repro.analysis.plancheck",
     "PlanAnalyzer", "analyze"),
    ("mediator.history", "repro.mediator.history",
     "SequenceGuard", "check"),
    ("mediator.history", "repro.mediator.history",
     "MediatorHistory", "record"),
    ("observatory", "repro.observatory", "Observatory", "record_pose"),
    ("observatory", "repro.observatory", "Observatory", "observe_result"),
    ("persistence", "repro.persistence", "PersistenceSink", "record_pose"),
    ("mediator.dispatch", "repro.mediator.dispatch",
     "FanoutDispatcher", "dispatch"),
    ("source.server", "repro.source.server", "RemoteSource", "answer"),
    ("relational.execute", "repro.source.server", None, "execute"),
    ("source.results.tag_results", "repro.source.server", None,
     "tag_results"),
    ("statdb.audit", "repro.statdb.audit", "SumAuditor",
     "check_and_record"),
    ("mediator.integrator", "repro.mediator.integrator",
     "ResultIntegrator", "integrate"),
    ("source.results.untag_results", "repro.mediator.integrator", None,
     "untag_results"),
    ("linkage.private", "repro.linkage.private", "BloomRecordEncoder",
     "encode"),
    ("mediator.control", "repro.mediator.control", "PrivacyControl",
     "verify"),
)

#: Layer names in report order; the pose's own layer (:data:`ENGINE`),
#: whose self time is what no wrapped layer accounts for, follows them.
LAYERS = tuple(dict.fromkeys(entry[0] for entry in ENTRY_POINTS))

#: Largest allowed gap between the posing thread's summed self times and
#: the summed pose wall time, as a share of the latter.
ACCOUNTING_TOLERANCE = 0.01


class Recorder:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans = []
        self.thread_starts = []  # (thread, time, seq) of Thread.start calls
        self.integrations = []   # (rows in, duplicates removed)
        self.wal_records = []    # records handed to the WAL backend
        self.seq = 0
        self._patches = []

    # -- wrapping --------------------------------------------------------------

    def wrap(self, owner, attribute, layer):
        """Replace ``owner.attribute`` with a span-recording wrapper."""
        original = getattr(owner, attribute)
        spans, clock = self.spans, self.clock
        cpu_clock = time.thread_time

        def traced(*args, **kwargs):
            start, cpu = clock(), cpu_clock()
            try:
                return original(*args, **kwargs)
            finally:
                spans.append(Span(layer, threading.get_ident(), start,
                                  clock(), self.seq, cpu_clock() - cpu))

        self._patch(owner, attribute, traced)

    def hook(self, owner, attribute, note):
        """Replace ``owner.attribute`` with a wrapper that calls
        ``note(args, result)`` after each successful call (no span)."""
        original = getattr(owner, attribute)

        def noted(*args, **kwargs):
            result = original(*args, **kwargs)
            note(args, result)
            return result

        self._patch(owner, attribute, noted)

    def install(self):
        """Wrap every entry point of :data:`ENTRY_POINTS` plus the hooks
        behind the counters (thread starts, integration sizes, WAL)."""
        import importlib

        from repro.persistence.wal import WalBackend

        for layer, module_path, owner_name, attribute in ENTRY_POINTS:
            module = importlib.import_module(module_path)
            owner = getattr(module, owner_name) if owner_name else module
            self.wrap(owner, attribute, layer)
        self.hook(threading.Thread, "start",
                  lambda args, result: self.thread_starts.append(
                      (threading.get_ident(), self.clock(), self.seq)))
        integrator = importlib.import_module("repro.mediator.integrator")
        self.hook(integrator.ResultIntegrator, "integrate",
                  lambda args, result: self.integrations.append(
                      (len(result[0]) + result[2], result[2])))
        self.hook(WalBackend, "append",
                  lambda args, result: self.wal_records.append(args[1]))

    def uninstall(self):
        """Restore every wrapped attribute (in reverse order)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, attribute, replacement):
        # Keep what the owner itself defines, so uninstall restores the
        # exact descriptor rather than a bound or inherited copy.
        self._patches.append((owner, attribute,
                              vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    # -- the pose itself -------------------------------------------------------

    def pose(self, seq, start, end, cpu):
        """Record the client's pose call (the root of pose ``seq``)."""
        self.spans.append(Span(ENGINE, threading.get_ident(), start, end,
                               seq, cpu))


def fold(spans):
    """``[(span, self seconds, busy seconds)]``: each span's wall and CPU
    time minus its children's.

    Children are the spans on the same thread that start inside a span
    and are not inside one of its other children.  A child covers its
    parent only up to the parent's end, so a span that outlives its
    parent (improper nesting) makes the thread's self times sum to more
    than its root spans' wall time, which the accounting check reports.
    """
    by_thread = defaultdict(list)
    for span in spans:
        by_thread[span.thread].append(span)
    folded = []
    for items in by_thread.values():
        items.sort(key=lambda span: (span.start, -span.end))
        stack = []  # [span, wall and CPU seconds covered by its children]
        for span in items:
            while stack and stack[-1][0].end <= span.start:
                folded.append(_settle(*stack.pop()))
            if stack:
                stack[-1][1] += min(span.end, stack[-1][0].end) - span.start
                stack[-1][2] += span.cpu
            stack.append([span, 0.0, 0.0])
        while stack:
            folded.append(_settle(*stack.pop()))
    return folded


def _settle(span, covered, covered_cpu):
    return span, span.end - span.start - covered, span.cpu - covered_cpu


def layer_metrics(recorder, poses):
    """Per-layer metrics from one traced run of ``poses`` poses.

    Returns ``(metrics, accounting)`` where ``metrics`` maps metric name
    to ``(value, unit)`` and ``accounting`` holds the posing thread's
    summed self time and summed pose wall time (seconds).
    """
    folded = fold(recorder.spans)
    roots = [span for span in recorder.spans if span.layer == ENGINE]
    posing = {span.thread for span in roots}
    calls = defaultdict(int)
    self_s = defaultdict(float)
    busy_s = defaultdict(float)
    posing_self = 0.0
    for span, seconds, busy in folded:
        calls[span.layer] += 1
        self_s[span.layer] += seconds
        busy_s[span.layer] += busy
        if span.thread in posing:
            posing_self += seconds
    wall = sum(span.end - span.start for span in roots)

    per = 1.0 / max(1, poses)
    metrics = {}
    for layer in LAYERS + (ENGINE,):
        if layer != ENGINE:
            metrics[f"{layer}.calls_per_pose"] = (calls[layer] * per,
                                                  "count")
        metrics[f"{layer}.self_ms_per_pose"] = (
            self_s[layer] * 1000.0 * per, "ms")
        metrics[f"{layer}.busy_ms_per_pose"] = (
            busy_s[layer] * 1000.0 * per, "ms")

    dispatch_wall, overhead, threads = _dispatch_costs(recorder)
    metrics["mediator.dispatch.wall_ms_per_pose"] = (
        dispatch_wall * 1000.0 * per, "ms")
    metrics["mediator.dispatch.overhead_ms_per_pose"] = (
        overhead * 1000.0 * per, "ms")
    metrics["mediator.dispatch.threads_per_pose"] = (threads * per, "count")

    rows_in = sum(item[0] for item in recorder.integrations)
    duplicates = sum(item[1] for item in recorder.integrations)
    metrics["mediator.integrator.rows_in_per_pose"] = (rows_in * per,
                                                       "count")
    metrics["mediator.integrator.duplicates_per_pose"] = (
        duplicates * per, "count")
    metrics["mediator.integrator.duplicate_ratio"] = (
        duplicates / rows_in if rows_in else 0.0, "ratio")

    from repro.persistence.wal import _dump

    wal_bytes = sum(len(_dump(record)) + 1
                    for record in recorder.wal_records)
    metrics["persistence.wal_bytes_per_pose"] = (wal_bytes * per, "bytes")
    return metrics, {"posing_self_s": posing_self, "pose_wall_s": wall}


def _covered(intervals):
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _dispatch_costs(recorder):
    """Summed dispatch wall, dispatch overhead, and threads started.

    Overhead is a dispatch call's wall time minus the part of it during
    which at least one ``source.server`` span inside it runs: what
    dispatching costs beyond the source work the pose waits for anyway,
    whether the sources run side by side (then it is about the wall
    minus the slowest) or one after another (the wall minus their sum).
    """
    answers = defaultdict(list)
    for span in recorder.spans:
        if span.layer == "source.server":
            answers[span.seq].append(span)
    starts = defaultdict(list)
    for thread, when, seq in recorder.thread_starts:
        starts[seq].append((thread, when))
    wall = overhead = 0.0
    threads = 0
    for span in recorder.spans:
        if span.layer != "mediator.dispatch":
            continue
        duration = span.end - span.start
        inside = [(answer.start, answer.end) for answer in answers[span.seq]
                  if span.start <= answer.start and answer.end <= span.end]
        wall += duration
        overhead += duration - _covered(inside)
        threads += sum(1 for thread, when in starts[span.seq]
                       if thread == span.thread
                       and span.start <= when <= span.end)
    return wall, overhead, threads
