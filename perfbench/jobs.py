"""The job workloads, each job run in a child process of its own, as one
CLI invocation would run it, so its memory is the program's alone.

``python3 perfbench/jobs.py SPEC.json`` runs one job and writes its
timing (and, traced, its spans) to ``SPEC.json.out``:

* ``batch`` — what ``repro batch map --jobs 2 --store S`` runs:
  ``ParallelRunner(jobs=2, store=S).map_corpus`` over an NDJSON corpus,
  the outputs written to disk;
* ``stream`` — what ``repro map --stream --out O`` runs:
  ``stream_map_to_path(InstMap(σ), O, path=doc)``.

A fresh process per job also keeps the peak RSS a property of one job:
a second batch job in the same process peaks ~35 % higher than the
first in some runs and not in others (how the allocator reuses the
first job's freed outputs).

Each job writes one output file of its own, never over an earlier one,
and each file is deleted seconds after it was written, before the
kernel writes it back: on file systems where freeing written-back
blocks is slow (online discard), truncating many files stalls a job for
far longer than the job takes, and a backlog of freed blocks slows
whatever touches the disk next (the next run's set-up).

The parent reads the children's peak RSS from ``RUSAGE_CHILDREN``
(pool workers included: the child reaps them before it exits).
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _run(spec: dict) -> dict:
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    from repro.core.instmap import InstMap
    from repro.engine import ArtifactStore, ParallelRunner, stream_map_to_path

    from inputs import digest
    from tracing import Recorder

    recorder = Recorder()
    span = (recorder.span if spec["trace"]
            else lambda name: contextlib.nullcontext())
    sigma = ArtifactStore(spec["store"], create=False).get_embedding(
        spec["embedding"])
    output = Path(spec["output"])
    begin = time.perf_counter()
    if spec["kind"] == "batch":
        with span("job"):
            with span("job.map_corpus"):
                outcomes = ParallelRunner(
                    jobs=2, store=spec["store"]).map_corpus(
                        sigma, spec["corpus"])
            with span("job.write"):
                with open(output, "w") as handle:
                    for outcome in outcomes:
                        if outcome.ok:
                            handle.write(outcome.output + "\n")
        job = {"seconds": time.perf_counter() - begin,
               "failed": sum(not o.ok for o in outcomes),
               "digest": digest(o.output for o in outcomes)}
    else:
        with span("job"):
            stats = stream_map_to_path(InstMap(sigma), output,
                                       path=spec["doc"])
        job = {"seconds": time.perf_counter() - begin,
               "chars_out": stats.chars_out,
               "whole_document": stats.whole_document}
    job["spans"] = [[s.name, s.start, s.end] for s in recorder.spans]
    return job


def run_jobs(spec: dict, work: Path) -> tuple[dict, float]:
    """Run jobs, one child each, until ``spec["seconds"]`` have passed
    and at least ``spec["min_jobs"]`` ran (never past
    ``spec["max_seconds"]``).  Only the last job's output file is kept,
    for the caller's check.  Returns ({"jobs": [...], "spans": [...]},
    peak RSS MB of every child and every process it reaped)."""
    out = Path(spec["out"])
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(work))
    name = "corpus" if spec["kind"] == "batch" else "stream"
    jobs: list[dict] = []
    spans: list = []
    previous = None
    started = time.perf_counter()
    while True:
        output = out / f"{name}-{len(jobs)}.mapped.xml"
        path = work / f"job-{time.monotonic_ns()}.json"
        path.write_text(json.dumps(dict(spec, output=str(output))))
        subprocess.run([sys.executable, str(HERE / "jobs.py"), str(path)],
                       cwd=spec["root"], env=env, check=True,
                       stdin=subprocess.DEVNULL,
                       timeout=spec["max_seconds"] + 120)
        job = json.loads(Path(f"{path}.out").read_text())
        spans += job.pop("spans")
        jobs.append(job)
        # The output before this one goes now, seconds after it was
        # written.
        if previous is not None:
            previous.unlink()
        previous = output
        elapsed = time.perf_counter() - started
        if elapsed >= spec["max_seconds"] or (
                elapsed >= spec["seconds"]
                and len(jobs) >= spec["min_jobs"]):
            break
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"jobs": jobs, "spans": spans}, peak_kb / 1024


if __name__ == "__main__":
    spec_path = Path(sys.argv[1])
    Path(f"{spec_path}.out").write_text(
        json.dumps(_run(json.loads(spec_path.read_text()))))
