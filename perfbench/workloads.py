"""The four workloads: set-up, measured phase, checks and metrics.

``serve-docs`` and ``serve-queries`` send HTTP requests to a
``repro serve`` daemon; ``batch-corpus`` and ``stream-large`` run the
functions behind ``repro batch map --jobs 2`` and
``repro map --stream --out`` in a child process.  Every run reports
every end-to-end metric (untraced) or every per-layer metric (traced),
whatever its workload: the endpoint medians and serve layers a
workload's own traffic lacks come from a short fixed side list of HTTP
requests (the job workloads send it to a daemon set up after their
jobs, outside their ``setup_s``).
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import layers
from inputs import COLD_QUERIES, STREAM_TARGET_BYTES, make_inputs
from jobs import run_jobs
from load import (
    Record,
    Requests,
    closed_loop,
    docs_schedule,
    queries_schedule,
    send_side,
    side_requests,
)
from prepare import set_up
from tracing import Recorder

#: (name, unit, better) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("req_s", "1/s", "higher"),
    ("p50_ms", "ms", "lower"),
    ("p99_ms", "ms", "lower"),
    ("map_p50_ms", "ms", "lower"),
    ("invert_p50_ms", "ms", "lower"),
    ("translate_p50_ms", "ms", "lower"),
    ("evolve_p50_ms", "ms", "lower"),
    ("mb_s", "MB/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
ENDPOINTS = ("map", "invert", "translate", "evolve")
#: Set-up runs this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5
#: p99 needs ten samples beyond it.  At the seed's ~46 requests/s a
#: serve run is bound by this count, and 1000 requests of serve-docs
#: cycle its 250 map and 50 invert bodies a whole number of times.
MIN_REQUESTS = 1000
MIN_JOBS = 2
MAX_MEASURE_S = 120.0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                   # serve | batch | stream
    why: str
    docs: int
    inverts: int
    cold: int
    deep: int
    corpus: int = 0
    stream_bytes: int = 0
    main: tuple = ()            # endpoints of the main traffic (serve)


WORKLOADS = {w.name: w for w in (
    Workload("serve-docs", "serve",
             "the whole document plane behind HTTP (transport, JSON, "
             "tree parse, codec, inverse program, serialize) while "
             "translation sits idle",
             docs=250, inverts=50, cold=256, deep=8,
             main=("map", "invert")),
    Workload("serve-queries", "serve",
             "Tr, ANFA rendering, evolution and cache behaviour with no "
             "XML parsing; the hot/cold mix separates a cache gain from "
             "a Tr gain",
             docs=48, inverts=32, cold=COLD_QUERIES, deep=160,
             main=("translate", "evolve")),
    Workload("batch-corpus", "batch",
             "the same parse and codec work with no HTTP, plus fork-pool "
             "start-up and worker warm start",
             docs=48, inverts=32, cold=256, deep=8, corpus=1000),
    Workload("stream-large", "stream",
             "the only workload that reaches the event parser and the "
             "streaming executor; memory is the point",
             docs=48, inverts=32, cold=256, deep=8,
             stream_bytes=STREAM_TARGET_BYTES),
)}

_ROLES = {"serve": ("doc", "chain", "evolve"), "batch": ("doc",),
          "stream": ("stream",)}


class Outcome:
    """Operations sent / succeeded / failed, per kind, plus the first
    few divergences."""

    def __init__(self) -> None:
        self.counts: dict[str, list[int]] = {}
        self.errors: list[str] = []

    def add(self, kind: str, ok: bool, what: str = "") -> None:
        row = self.counts.setdefault(kind, [0, 0])
        row[0] += 1
        if not ok:
            row[1] += 1
            if len(self.errors) < 10:
                self.errors.append(" ".join(filter(None, (kind, what)))
                                   + " diverged from the oracle")

    def add_records(self, records: list[Record]) -> None:
        for record in records:
            self.add(record.request.kind, record.ok, f"#{record.index}")

    @property
    def attempted(self) -> int:
        return sum(row[0] for row in self.counts.values())

    @property
    def failed(self) -> int:
        return sum(row[1] for row in self.counts.values())

    def table(self) -> dict:
        return {kind: {"sent": sent, "succeeded": sent - failed,
                       "failed": failed}
                for kind, (sent, failed) in sorted(self.counts.items())}


def _p99(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def _endpoint_medians(records: list[Record]) -> dict:
    return {f"{kind}_p50_ms": statistics.median(
        r.latency for r in records if r.request.kind == kind) * 1e3
        for kind in ENDPOINTS}


class Run:
    """One invocation: a workload, a seed, a duration, traced or not."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 trace: bool, root: Path, work: Path) -> None:
        self.w, self.seed, self.seconds, self.trace = (workload, seed,
                                                       seconds, trace)
        self.root, self.work = root, work
        self.recorder = Recorder()
        self.outcome = Outcome()
        self.metrics: dict[str, float] = {}
        self.generator: dict[str, float] = {}

    def execute(self) -> None:
        w = self.w
        self.inputs = make_inputs(self.seed, self.work, docs=w.docs,
                                  inverts=w.inverts, cold=w.cold,
                                  deep=w.deep, corpus=w.corpus,
                                  stream_bytes=w.stream_bytes)
        if w.stream_bytes:
            self.outcome.add("stream-prefix", self.inputs.stream_prefix_ok)
        self.requests = Requests(self.inputs)
        embeddings = [self.inputs.embeddings[r] for r in _ROLES[w.kind]]
        setups: list[float] = []
        daemon = None
        try:
            for rep in range(SETUP_REPEATS):
                if daemon is not None:
                    daemon.stop()
                seconds, self.store, daemon = set_up(
                    embeddings, self.root, self.work, f"store-{rep}",
                    self.recorder, daemon=w.kind == "serve")
                setups.append(seconds)
            self.metrics["setup_s"] = statistics.median(setups)
            if w.kind == "serve":
                self._serve(daemon)
            else:
                self._job()
        finally:
            if daemon is not None:
                daemon.stop()

    # -- serve workloads ---------------------------------------------------
    def _serve(self, daemon) -> None:
        w = self.w
        schedule = (docs_schedule if w.main == ("map", "invert")
                    else queries_schedule)(self.requests, self.seed)
        side = side_requests(self.requests,
                             [k for k in ENDPOINTS if k not in w.main],
                             self.seed, translates=64)
        if not self.trace:
            records, wall, cpu = closed_loop(daemon.port, schedule,
                                             self.seconds, MIN_REQUESTS,
                                             MAX_MEASURE_S)
            side_records = send_side(daemon.port, side)
            self.outcome.add_records(records + side_records)
            self._generator(cpu, wall)
            latencies = [r.latency for r in records]
            self.metrics.update(
                req_s=len(records) / wall,
                p50_ms=statistics.median(latencies) * 1e3,
                p99_ms=_p99(latencies) * 1e3,
                mb_s=sum(len(r.request.body) for r in records) / wall / 1e6,
                **_endpoint_medians(records + side_records))
            self.metrics["peak_rss_mb"] = daemon.peak_rss_mb()
            return
        # Traced run: an untraced half, then a traced half of the same
        # schedule; their p50 difference is the tracing overhead.
        half = self.seconds / 2
        plain, wall, cpu = closed_loop(daemon.port, schedule, half,
                                       MIN_REQUESTS // 2, MAX_MEASURE_S)
        traced = closed_loop(daemon.port, schedule, half, MIN_REQUESTS // 2,
                             MAX_MEASURE_S, recorder=self.recorder)[0]
        side_records = send_side(daemon.port, side, self.recorder)
        self.outcome.add_records(plain + traced + side_records)
        self._generator(cpu, wall)
        self._overhead([r.latency for r in plain],
                       [r.latency for r in traced])
        self._layers(self.store, traced + side_records,
                     daemon.get("/metrics")[1])

    # -- job workloads -----------------------------------------------------
    def _job(self) -> None:
        w, inputs = self.w, self.inputs
        role = "doc" if w.kind == "batch" else "stream"
        spec = {"kind": w.kind, "root": str(self.root),
                "store": str(self.store),
                "embedding": inputs.embeddings[role].fingerprint(),
                "corpus": str(inputs.corpus_path),
                "doc": str(inputs.stream_path),
                "max_seconds": MAX_MEASURE_S}
        cpu_started = time.process_time()
        if not self.trace:
            result, peak = self._run_jobs(spec, "main", self.seconds,
                                          MIN_JOBS, False)
            walls = [job["seconds"] for job in result["jobs"]]
            self._generator(time.process_time() - cpu_started, sum(walls))
            source = (inputs.corpus_bytes if w.kind == "batch"
                      else inputs.stream_bytes)
            self.metrics.update(
                req_s=len(walls) / sum(walls),
                p50_ms=statistics.median(walls) * 1e3,
                p99_ms=_p99(walls) * 1e3,
                mb_s=source * len(walls) / sum(walls) / 1e6,
                peak_rss_mb=peak)
        else:
            half = self.seconds / 2
            plain, _ = self._run_jobs(spec, "plain", half, 1, False)
            walls = [job["seconds"] for job in plain["jobs"]]
            self._generator(time.process_time() - cpu_started, sum(walls))
            traced, _ = self._run_jobs(spec, "traced", half, 1, True)
            for name, start, end in traced["spans"]:
                self.recorder.add(name, start, end)
            self._overhead(walls, [job["seconds"] for job in traced["jobs"]])
        # The endpoints: a daemon over the serve embeddings, set up after
        # the jobs (its set-up is not part of this workload's setup_s),
        # gets the fixed side list of every endpoint.
        setup_spans = Recorder()
        _, store, daemon = set_up(
            [inputs.embeddings[r] for r in _ROLES["serve"]], self.root,
            self.work, "serve-store", setup_spans, daemon=True)
        try:
            side = side_requests(self.requests, ENDPOINTS, self.seed,
                                 translates=32)
            records = send_side(daemon.port, side,
                                self.recorder if self.trace else None)
            metrics_body = daemon.get("/metrics")[1]
        finally:
            daemon.stop()
        self.outcome.add_records(records)
        if not self.trace:
            self.metrics.update(_endpoint_medians(records))
            return
        for span in setup_spans.named("serve.ready"):
            self.recorder.add(span.name, span.start, span.end)
        self._layers(store, records, metrics_body)

    def _run_jobs(self, spec: dict, tag: str, seconds: float,
                  min_jobs: int, trace: bool) -> tuple[dict, float]:
        """One child job loop, writing into a directory of its own;
        every job and the last output file are checked."""
        out = self.work / f"out-{tag}"
        result, peak = run_jobs(dict(spec, out=str(out), seconds=seconds,
                                     min_jobs=min_jobs, trace=trace),
                                self.work)
        self._check_jobs(result["jobs"], out)
        return result, peak

    def _check_jobs(self, jobs: list[dict], out: Path) -> None:
        """Check every job's report and the last job's output file (the
        only one the child keeps), then delete that file."""
        inputs = self.inputs
        if self.w.kind == "batch":
            for index, job in enumerate(jobs):
                self.outcome.add("job", job["failed"] == 0 and
                                 job["digest"] == inputs.corpus_digest,
                                 f"#{index}")
            path = out / f"corpus-{len(jobs) - 1}.mapped.xml"
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            self.outcome.add("output-file", digest == inputs.corpus_digest)
        else:
            for index, job in enumerate(jobs):
                self.outcome.add(
                    "job", not job["whole_document"] and
                    job["chars_out"] == inputs.stream_expected_chars,
                    f"#{index}")
            path = out / f"stream-{len(jobs) - 1}.mapped.xml"
            head = inputs.stream_expected_head
            with open(path) as handle:
                opening = handle.read(len(head))
            self.outcome.add("output-file", opening == head and
                             path.stat().st_size
                             == inputs.stream_expected_chars + 1)
        path.unlink()

    # -- shared ------------------------------------------------------------
    def _generator(self, cpu: float, wall: float) -> None:
        self.generator = {"cpu_s": cpu, "wall_s": wall,
                          "cpu_pct": 100 * cpu / wall}

    def _overhead(self, plain: list[float], traced: list[float]) -> None:
        base = statistics.median(plain)
        self.metrics["trace.overhead_pct"] = (
            100 * (statistics.median(traced) - base) / base)

    def _layers(self, store: Path, traffic: list[Record],
                metrics_body: bytes) -> None:
        r = self.recorder
        self.metrics.update(layers.serve_layers(store, traffic, r))
        self.metrics["engine.translation_hit_ratio"] = layers.hit_ratio(
            metrics_body)
        self.metrics.update(layers.document_layers(self.inputs, r))
        self.metrics.update(layers.query_layers(self.inputs, r))
        self.metrics.update(layers.stream_layers(self.inputs, self.work, r))
        self.metrics.update(layers.pool_layers(self.inputs, store,
                                               self.work, r))
        self.metrics.update(layers.setup_layers(r))
        self.metrics["load.client_cpu_pct"] = self.generator["cpu_pct"]

    def reported(self) -> dict:
        """The metrics this run reports: every end-to-end metric, or
        with tracing every per-layer metric."""
        table = layers.PER_LAYER if self.trace else END_TO_END
        return {name: {"value": self.metrics[name], "unit": unit}
                for name, unit, _ in table}

    def record(self, host: dict, spans_path: Optional[str]) -> dict:
        return {"workload": self.w.name, "seed": self.seed,
                "seconds": self.seconds, "trace": self.trace,
                "host": host, "inputs": self.inputs.facts(),
                "operations": self.outcome.table(),
                "attempted": self.outcome.attempted,
                "failed": self.outcome.failed,
                "error_rate": self.outcome.failed / self.outcome.attempted,
                "errors": self.outcome.errors,
                "generator": self.generator,
                "metrics": self.reported(),
                "spans": spans_path}
