"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve-docs --seed 1 --seconds 6 \\
        --trace 0

From the repository root.  The program is imported from ``src/`` (no
build step); inputs, stores and outputs live under ``.perfbench-work/``
and are removed when the run ends.  Each run keeps a JSON record (host
and input facts, operation counts, metrics) under ``.perfbench-out/``,
and a traced run also keeps its spans there.

With ``--trace 0`` the last line of standard output is a JSON object
with every end-to-end metric; with ``--trace 1`` it carries every
per-layer metric instead.  The lines before it print the same numbers
by name and unit, plus the operation counts and the load generator's
own CPU use.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def host_facts() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10,
                             check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown (not a git checkout)"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "kernel": platform.release(), "git_sha": sha}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} (one of "
              + ", ".join(WORKLOADS) + ")", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    out = ROOT / ".perfbench-out"
    work.mkdir(parents=True)
    out.mkdir(exist_ok=True)
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds,
              bool(args.trace), ROOT, work)
    try:
        run.execute()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = None
    if args.trace:
        spans = str(out / f"{stem}-spans.json")
        run.recorder.dump(spans)
    record = run.record(host_facts(), spans)
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {run.w.why}")
    print(f"# host: {json.dumps(record['host'])}")
    print(f"# inputs: {json.dumps(record['inputs'])}")
    for kind, row in record["operations"].items():
        print(f"# ops {kind}: sent {row['sent']}, succeeded "
              f"{row['succeeded']}, failed {row['failed']}")
    for error in record["errors"]:
        print(f"# FAILED: {error}")
    gen = record["generator"]
    print(f"# load generator: {gen['cpu_s']:.2f} s CPU over "
          f"{gen['wall_s']:.2f} s ({gen['cpu_pct']:.1f}% of one core)")
    if args.trace:
        for name, row in sorted(run.recorder.summary().items()):
            print(f"# span {name}: n={row['count']} "
                  f"total={row['total_ms']:.1f} ms "
                  f"self={row['self_ms']:.1f} ms")
    for name, metric in record["metrics"].items():
        print(f"{name:32s} {metric['value']:14.4f} {metric['unit']}")
    print(f"{'error_rate':32s} {record['error_rate']:14.4f} ratio")
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
