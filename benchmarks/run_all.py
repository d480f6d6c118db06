"""Run every benchmark exposing ``collect_results()``; emit per-bench JSON.

Each participating ``bench_<name>.py`` module exports a
``collect_results(repeats=...)`` function returning a JSON-serializable
dict (its acceptance cell, so one sweep stays CI-sized).  This driver
imports them, runs them, and writes one ``BENCH_<name>.json`` artifact
per bench — the machine-readable counterpart of the human tables the
individual scripts print:

.. code-block:: json

    {
      "bench": "cache",
      "generated_at": 1754480000.0,
      "elapsed_s": 4.2,
      "results": {"cells": [{"sources": 8, "warm_ms": 0.1, "...": "..."}]}
    }

Usage::

    PYTHONPATH=src python benchmarks/run_all.py                # all benches
    PYTHONPATH=src python benchmarks/run_all.py --smoke        # CI sweep
    PYTHONPATH=src python benchmarks/run_all.py --only cache   # one bench
    PYTHONPATH=src python benchmarks/run_all.py --out-dir /tmp/bench

Artifacts land in ``--out-dir`` (default ``benchmarks/results/``, which
is gitignored).  A failing bench does not stop the sweep: its error is
recorded, the remaining benches still run, and the combined
``BENCH_summary.json`` (one status row per bench) plus a non-zero exit
report the failure.  ``--smoke`` forces ``repeats=1`` — the CI setting.

Every sweep also appends one schema-versioned line to the committed
``benchmarks/BENCH_trajectory.jsonl`` (disable with ``--no-trajectory``):
the append-only history of when each bench last ran, passed, and how
long it took — see :func:`append_trajectory`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Benches that export ``collect_results()`` — extend as benches adopt it.
BENCHES = ("cache", "fanout", "figure1", "flow", "kernels",
           "mediation_modes", "obs", "persistence", "private_dedup",
           "sequence_audit", "static_check", "validation")

#: Version of the trajectory-entry shape appended per sweep; bump when
#: the entry layout changes so downstream tooling can branch on it.
TRAJECTORY_SCHEMA = 1


def append_trajectory(path, summary):
    """Append one schema-versioned sweep entry to the trajectory log.

    ``BENCH_trajectory.jsonl`` is the committed, append-only history of
    benchmark sweeps: one JSON line per run with the sweep settings and
    each bench's status and elapsed time.  It answers "when did bench X
    start failing / slowing" without archaeology through CI logs; the
    per-bench artifacts keep the detailed numbers.
    """
    entry = {
        "schema": TRAJECTORY_SCHEMA,
        "generated_at": summary["generated_at"],
        "smoke": summary["smoke"],
        "repeats": summary["repeats"],
        "benches": {
            name: {"status": row["status"],
                   "elapsed_s": row.get("elapsed_s")}
            for name, row in sorted(summary["benches"].items())
        },
    }
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return path


def run_bench(name, repeats, out_dir):
    module = importlib.import_module(f"bench_{name}")
    started = time.perf_counter()
    results = module.collect_results(repeats=repeats)
    elapsed = time.perf_counter() - started
    payload = {
        "bench": name,
        "generated_at": time.time(),
        "elapsed_s": round(elapsed, 3),
        "results": results,
    }
    path = out_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path, elapsed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", action="append", choices=BENCHES,
                        help="run just this bench (repeatable)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of repeats forwarded to each bench")
    parser.add_argument("--smoke", action="store_true",
                        help="CI setting: force repeats=1")
    parser.add_argument("--out-dir", type=Path,
                        default=HERE / "results",
                        help="directory for the BENCH_<name>.json files")
    parser.add_argument("--trajectory", type=Path,
                        default=HERE / "BENCH_trajectory.jsonl",
                        help="append-only sweep history (JSON lines)")
    parser.add_argument("--no-trajectory", action="store_true",
                        help="skip appending to the trajectory log")
    args = parser.parse_args(argv)
    repeats = 1 if args.smoke else args.repeats

    sys.path.insert(0, str(HERE))
    args.out_dir.mkdir(parents=True, exist_ok=True)
    names = args.only or BENCHES
    summary = {
        "generated_at": time.time(),
        "smoke": args.smoke,
        "repeats": repeats,
        "benches": {},
    }
    failures = 0
    for name in names:
        try:
            path, elapsed = run_bench(name, repeats, args.out_dir)
        except Exception as error:  # a broken bench must not stop the sweep
            failures += 1
            summary["benches"][name] = {
                "status": "error",
                "error": f"{type(error).__name__}: {error}",
                "traceback": traceback.format_exc(),
            }
            print(f"BENCH_{name}: FAILED ({type(error).__name__}: {error})",
                  file=sys.stderr)
            continue
        summary["benches"][name] = {
            "status": "ok",
            "elapsed_s": round(elapsed, 3),
            "artifact": path.name,
        }
        print(f"BENCH_{name}: wrote {path} ({elapsed:.1f}s)")
    summary_path = args.out_dir / "BENCH_summary.json"
    summary_path.write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    print(f"BENCH_summary: wrote {summary_path} "
          f"({len(names) - failures}/{len(names)} ok)")
    if not args.no_trajectory:
        append_trajectory(args.trajectory, summary)
        print(f"BENCH_trajectory: appended to {args.trajectory}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
