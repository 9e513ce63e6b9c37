#!/usr/bin/env python3
"""Benchmark for the facering CLI.

    python3 bench/run.py --workload cm --seed 7 --seconds 30 --trace 0

Runs from the root of a source checkout and imports ``facering`` from its
``src/``.  Each workload is a closed loop: one process, one client, no
threads, jobs back to back through ``facering.cli.run(argv)``.  The job
list is built from ``--seed`` (see ``workloads.py``), written as JSON
documents into a scratch directory under the checkout, and repeated in
rounds until ``--seconds`` is used up.  Every job re-reads its documents,
so the per-complex caches start cold as they do for a command-line user.
Every output is checked (``checks.py``) and compared with the digest
recorded in ``digests.json``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs some
rounds untraced, then wraps the layers (``tracing.py``) and prints the
per-layer metrics of the traced rounds.  The last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 5
# Percentiles tried for the tail, highest first.  The tail is the highest
# one that leaves at least ten jobs of a single round beyond it, so it does
# not move when a faster program fits more rounds into the same time.
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)

sys.path[:0] = [SRC, BENCH_DIR]

import tracing  # noqa: E402
import workloads  # noqa: E402


def import_facering():
    """Import the checkout's facering from scratch, as a new process would."""
    for name in [n for n in sys.modules
                 if n == "facering" or n.startswith("facering.")]:
        del sys.modules[name]
    import facering.cli
    if not os.path.abspath(facering.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"facering was imported from {facering.cli.__file__}, "
                          f"not from {SRC}")
    return facering.cli


def setup(workload: str, seed: int):
    """Import facering, build the seeded job list and write its documents."""
    t0 = perf_counter()
    cli = import_facering()
    docdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    writer = workloads.DocWriter(docdir)
    rng = random.Random(seed)
    jobs = []
    for slot in workloads.SLOTS[workload]():
        jobs.extend(slot.make(rng.randrange(slot.variants), writer))
    return perf_counter() - t0, cli, jobs, docdir


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_job(cli, argv: list[str]):
    """One CLI invocation in process: (seconds, exit code, stdout, stderr,
    escaped exception or None)."""
    out, err = io.StringIO(), io.StringIO()
    escaped = None
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a contract violation: record, keep going
            code = None
            escaped = exc
        elapsed = perf_counter() - t0
    return elapsed, code, out.getvalue(), err.getvalue(), escaped


def judge(job, code, stdout, escaped, digests) -> list[str]:
    if escaped is not None:
        return [f"escaped {type(escaped).__name__}: {escaped}"]
    if code != job.expect_code:
        return [f"exit code {code}, expected {job.expect_code}"]
    problems = job.check(stdout) if job.check is not None else []
    recorded = digests.get(job.key)
    if recorded is None:
        problems.append("no recorded stdout digest")
    elif recorded != digest(stdout):
        problems.append("stdout differs from the recorded digest")
    return problems


class Round:
    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.probe_failures: list[str] = []


def run_round(cli, jobs, digests, tracer=None) -> Round:
    result = Round()
    queue = list(jobs)
    if tracer is not None:
        tracer.start_round()
    while queue:
        job = queue.pop(0)
        if tracer is not None:
            tracer.start_job(result.attempted)
        elapsed, code, stdout, _, escaped = run_job(cli, job.argv)
        result.attempted += 1
        result.latencies.append(elapsed)
        problems = judge(job, code, stdout, escaped, digests)
        if problems:
            result.failed += 1
            line = f"{job.name}: {'; '.join(problems)}"
            (result.probe_failures if job.probe else result.wrong).append(line)
        if job.follow is not None and not escaped:
            nxt = job.follow(stdout)
            if nxt is not None:
                queue.insert(0, nxt)
    return result


def run_rounds(cli, jobs, digests, budget: float, tracer=None):
    """Rounds back to back until the next one would overrun ``budget``."""
    rounds, spent, per_layer = [], [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        rounds.append(run_round(cli, jobs, digests, tracer))
        if tracer is not None:
            per_layer.append(tracer.round_metrics())
        spent.append(perf_counter() - t0)
        if perf_counter() - start + statistics.median(spent) > budget:
            return rounds, per_layer


def tail_percentile(jobs_per_round: int) -> float:
    for p in TAIL_PERCENTILES:
        if jobs_per_round * (100 - p) / 100 >= 10:
            return p
    return TAIL_PERCENTILES[-1]


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "facering")):
        print(f"error: no facering sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(BENCH_DIR, "digests.json"), encoding="utf-8") as fh:
        digests = json.load(fh).get(args.workload, {})

    os.makedirs(WORK, exist_ok=True)
    docdirs = []
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            seconds, cli, jobs, docdir = setup(args.workload, args.seed)
            setups.append(seconds)
            docdirs.append(docdir)
        if args.trace:
            plain, _ = run_rounds(cli, jobs, digests, 0.4 * args.seconds)
            tracer = tracing.Tracer()
            tracer.install()
            traced, per_layer = run_rounds(cli, jobs, digests,
                                           0.6 * args.seconds, tracer)
            rounds = plain + traced
        else:
            rounds, _ = run_rounds(cli, jobs, digests, args.seconds)
    finally:
        for d in docdirs:
            shutil.rmtree(d, ignore_errors=True)
        if not args.trace:
            with contextlib.suppress(OSError):
                os.rmdir(WORK)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    wrong = sorted({w for r in rounds for w in r.wrong})
    probe_failures = sorted({w for r in rounds for w in r.probe_failures})
    for line in wrong:
        print(f"WRONG {line}")
    for line in probe_failures:
        print(f"CONTRACT {line}")

    if args.trace:
        keys = [k for k, _ in tracing.layer_metric_names()]
        values = {k: statistics.median_low(m[k] for m in per_layer)
                  for k in keys}
        walls = [sum(r.latencies) for r in traced]
        values["trace.overhead_ratio"] = (statistics.median(walls) /
                                          statistics.median(sum(r.latencies)
                                                            for r in plain))
        values["repo.src_lines"] = src_lines()
        units = dict(tracing.layer_metric_names())
        units.update({"trace.overhead_ratio": "ratio", "repo.src_lines": "lines"})
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        spans = tracer.write_spans(
            os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        print(f"{args.workload}: {len(plain)} untraced and {len(traced)} traced "
              f"rounds; per-layer values are medians over traced rounds; "
              f"spans of the last traced round in {spans}")
    else:
        latencies = [x for r in rounds for x in r.latencies]
        per_round = rounds[0].attempted
        p = tail_percentile(per_round)
        metrics = {
            "wall_s": (statistics.median(sum(r.latencies) for r in rounds), "s"),
            "job_p50_ms": (1000 * statistics.median(latencies), "ms"),
            "job_tail_ms": (1000 * percentile(latencies, p), "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        }
        samples = {
            "wall_s": f"{len(rounds)} rounds of {per_round} jobs",
            "job_p50_ms": f"{len(latencies)} jobs",
            "job_tail_ms": f"p{p:g} of {len(latencies)} jobs",
            "setup_s": f"{len(setups)} set-ups",
            "ok_ratio": f"{attempted} jobs, {failed} failed "
                        f"(failed_ratio {failed / attempted:.4f})",
            "peak_rss_mb": "1 process",
        }
        for name, (value, unit) in metrics.items():
            print(f"{args.workload:12s} {name:12s} {value:12.4f} {unit:6s} "
                  f"{samples[name]}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
