#!/usr/bin/env python3
"""Record the stdout digest of every job any seed can produce.

    python3 bench/record_digests.py [workload ...]

Runs every variant of every slot once through ``facering.cli.run`` and
writes ``bench/digests.json``.  Run it only on a commit whose outputs are
known to be right: the benchmark then fails any later commit whose stdout
differs.  Output checks are run too, and any job that fails one is
reported, so a wrong output is not recorded unnoticed.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from time import perf_counter

import run
import workloads


def record(workload: str, cli) -> dict[str, str]:
    digests: dict[str, str] = {}
    docdir = tempfile.mkdtemp(prefix=f"record-{workload}-", dir=run.WORK)
    try:
        writer = workloads.DocWriter(docdir)
        for slot in workloads.SLOTS[workload]():
            t0 = perf_counter()
            for v in range(slot.variants):
                queue = slot.make(v, writer)
                while queue:
                    job = queue.pop(0)
                    _, code, stdout, _, escaped = run.run_job(cli, job.argv)
                    digests[job.key] = run.digest(stdout)
                    problems = run.judge(job, code, stdout, escaped, digests)
                    if problems:
                        print(f"  {job.name} [variant {v}]: {'; '.join(problems)}")
                    if job.follow is not None and escaped is None:
                        nxt = job.follow(stdout)
                        if nxt is not None:
                            queue.insert(0, nxt)
            print(f"{workload:12s} {slot.name:40s} {slot.variants} variants "
                  f"{perf_counter() - t0:7.2f} s", flush=True)
    finally:
        shutil.rmtree(docdir, ignore_errors=True)
    return digests


def main(argv: list[str]) -> int:
    names = argv or list(workloads.WORKLOADS)
    path = os.path.join(run.BENCH_DIR, "digests.json")
    table = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            table = json.load(fh)
    os.makedirs(run.WORK, exist_ok=True)
    cli = run.import_facering()
    for name in names:
        table[name] = record(name, cli)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
