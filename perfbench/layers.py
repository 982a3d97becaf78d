"""Per-layer metrics for the traced run.

Every layer is timed from outside, in spans around calls into its
public functions, on this run's seeded inputs:

* ``serve`` — each traced HTTP request is replayed in-process against a
  ``ServiceState`` warm-started from the same pack: ``decode_body``,
  ``dispatch`` and ``encode`` are timed, and the transport share of a
  request is its client round trip minus its ``dispatch`` replay;
* ``xtree`` — ``parse_xml``, ``iter_events_path``, ``to_string``;
* ``engine`` — the generated codec's ``map_tree`` (and the fallback
  splices it makes), ``Engine.invert``,
  ``Engine.translate_query`` (miss, then hit), ``stream_map_to_path``,
  ``iter_corpus`` and ``ParallelRunner`` at one and two jobs;
* ``xpath`` / ``anfa`` — ``parse_xr`` and ``canonical_describe``;
* ``evolution`` — ``Engine.evolve``.
"""

from __future__ import annotations

import json
import random
import statistics
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from repro.core.instmap import InstMap
from repro.engine import (
    CorpusDocument,
    Engine,
    ParallelRunner,
    iter_corpus,
    open_view,
    stream_map_to_path,
    write_ndjson,
)
from repro.serve.handlers import ServiceState, dispatch
from repro.serve.protocol import decode_body, encode
from repro.xpath.parser import parse_xr
from repro.xtree.parser import iter_events_path, parse_xml
from repro.xtree.serialize import to_string

from inputs import Inputs, stream_document, stream_embedding
from tracing import Recorder

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("serve.transport_ms", "ms", "lower"),
    ("serve.dispatch_ms", "ms", "lower"),
    ("serve.decode_ms", "ms", "lower"),
    ("serve.encode_ms", "ms", "lower"),
    ("serve.ready_ms", "ms", "lower"),
    ("xtree.parse_ms", "ms", "lower"),
    ("xtree.parse_mb_s", "MB/s", "higher"),
    ("xtree.events_mb_s", "MB/s", "higher"),
    ("xtree.serialize_ms", "ms", "lower"),
    ("engine.codec_ms", "ms", "lower"),
    ("engine.codec_out_mb_s", "MB/s", "higher"),
    ("engine.invert_ms", "ms", "lower"),
    ("engine.codec_share", "ratio", "higher"),
    ("engine.reference_fallbacks", "count", "lower"),
    ("engine.translate_miss_us", "us", "lower"),
    ("engine.translate_hit_us", "us", "lower"),
    ("engine.translation_hit_ratio", "ratio", "higher"),
    ("xpath.parse_us", "us", "lower"),
    ("anfa.describe_us", "us", "lower"),
    ("anfa.states", "count", "lower"),
    ("evolution.evolve_ms", "ms", "lower"),
    ("evolution.verdicts_s", "1/s", "higher"),
    ("engine.stream_self_mb_s", "MB/s", "higher"),
    ("engine.fragments_buffered_share", "ratio", "lower"),
    ("engine.parallel_efficiency", "ratio", "higher"),
    ("engine.pool_overhead_ms", "ms", "lower"),
    ("engine.corpus_read_mb_s", "MB/s", "higher"),
    ("engine.compile_ms", "ms", "lower"),
    ("engine.codegen_ms", "ms", "lower"),
    ("engine.save_store_ms", "ms", "lower"),
    ("engine.pack_ms", "ms", "lower"),
    ("engine.warm_start_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("load.client_cpu_pct", "%", "lower"),
)
#: Requests replayed in-process per traced run (the first ones sent).
REPLAY_LIMIT = 400
#: Documents in the corpus the pool layers run on.
POOL_CORPUS_DOCS = 300
SWEEP_STREAM_BYTES = 1024 * 1024


def serve_layers(store: Path, traffic, recorder: Recorder) -> dict:
    """Replay traced requests against a pack-warm ``ServiceState``."""
    for attempt in range(3):
        if attempt:
            view.close()
        with recorder.span("engine.warm_start"):
            view = open_view(store)
            state = ServiceState.from_view(view)
    transport, dispatch_s = [], []
    for record in [r for r in traffic if r.ok][:REPLAY_LIMIT]:
        body = record.request.body
        with recorder.span("serve.replay", record.index):
            with recorder.span("serve.decode", record.index):
                decode_body(body)
            with recorder.span("serve.dispatch", record.index) as span:
                _, payload = dispatch(state, "POST", record.request.path,
                                      body)
            with recorder.span("serve.encode", record.index):
                encode(payload)
        dispatch_s.append(span.duration)
        transport.append(record.latency - span.duration)
    view.close()
    return {"serve.transport_ms": statistics.median(transport) * 1e3,
            "serve.dispatch_ms": statistics.median(dispatch_s) * 1e3,
            "serve.decode_ms": recorder.median_ms("serve.decode"),
            "serve.encode_ms": recorder.median_ms("serve.encode")}


@contextmanager
def counting(obj, method: str) -> Iterator[list]:
    """Count calls to ``obj.method`` through an instance attribute that
    shadows the method until the block ends; yields ``[calls]``."""
    calls = [0]
    original = getattr(obj, method)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    setattr(obj, method, counted)
    try:
        yield calls
    finally:
        delattr(obj, method)


def document_layers(inputs: Inputs, recorder: Recorder) -> dict:
    """Parse, codec, invert and serialize on the run's documents.  The
    codec serves a fragment whose shape it has no static code for by a
    fallback splice (``InstMap.fragment_pairs``), which goes to the
    reference builder (``InstMap.build_fragment``) when the compiled
    plane cannot serve the shape either; both are counted."""
    engine = Engine()
    sigma = inputs.embeddings["doc"]
    compiled = engine.compile_embedding(sigma, ensure_valid=True)
    codec = compiled.codec
    parsed_bytes = out_bytes = static = 0
    with counting(compiled.instmap, "fragment_pairs") as splices, \
            counting(compiled.instmap, "build_fragment") as references:
        for doc in inputs.docs:
            with recorder.span("xtree.parse"):
                tree = parse_xml(doc)
            before = splices[0]
            with recorder.span("engine.codec"):
                out_bytes += len(codec.map_tree(tree))
            static += splices[0] == before
            parsed_bytes += len(doc)
    for i in inputs.invert_ids:
        target = parse_xml(inputs.mapped[i])
        with recorder.span("engine.invert"):
            source = engine.invert(sigma, target)
        with recorder.span("xtree.serialize"):
            to_string(source)
    return {
        "xtree.parse_ms": recorder.median_ms("xtree.parse"),
        "xtree.parse_mb_s": parsed_bytes / recorder.total("xtree.parse")
        / 1e6,
        "xtree.serialize_ms": recorder.median_ms("xtree.serialize"),
        "engine.codec_ms": recorder.median_ms("engine.codec"),
        "engine.codec_out_mb_s": out_bytes / recorder.total("engine.codec")
        / 1e6,
        "engine.invert_ms": recorder.median_ms("engine.invert"),
        # Documents the codec maps without a single fallback splice.
        "engine.codec_share": static / len(inputs.docs),
        "engine.reference_fallbacks": float(references[0]),
    }


def query_layers(inputs: Inputs, recorder: Recorder) -> dict:
    engine = Engine()
    for sigma in inputs.embeddings.values():
        engine.compile_embedding(sigma, ensure_valid=True)
    states = []
    for query in inputs.cold[:256] + inputs.deep[:8]:
        sigma = inputs.embeddings[query.embedding]
        with recorder.span("xpath.parse"):
            parse_xr(query.text)
        with recorder.span("engine.translate_miss"):
            anfa = engine.translate_query(sigma, query.text)
        with recorder.span("engine.translate_hit"):
            engine.translate_query(sigma, query.text)
        with recorder.span("anfa.describe"):
            anfa.canonical_describe()
        states.append(len(anfa.states()))
    case = inputs.evolve_case
    verdicts = 0
    for window in inputs.windows:
        with recorder.span("evolution.evolve"):
            report = engine.evolve(case.old, case.new, window.queries,
                                   embedding=case.embedding)
        verdicts += len(report.verdicts)
    return {
        "engine.translate_miss_us":
            recorder.median_ms("engine.translate_miss") * 1e3,
        "engine.translate_hit_us":
            recorder.median_ms("engine.translate_hit") * 1e3,
        "xpath.parse_us": recorder.median_ms("xpath.parse") * 1e3,
        "anfa.describe_us": recorder.median_ms("anfa.describe") * 1e3,
        "anfa.states": statistics.fmean(states),
        "evolution.evolve_ms": recorder.median_ms("evolution.evolve"),
        "evolution.verdicts_s": verdicts
        / recorder.total("evolution.evolve"),
    }


def stream_layers(inputs: Inputs, work: Path, recorder: Recorder) -> dict:
    """Event parsing vs the whole streamed map, on the stream workload's
    bufferable prefix (or a document of the same shape)."""
    path = inputs.stream_prefix_path
    if path is None:
        path = work / "sweep-stream.xml"
        stream_document(path, SWEEP_STREAM_BYTES, random.Random(inputs.seed))
    size = path.stat().st_size
    instmap = InstMap(stream_embedding())
    for _ in range(3):
        with recorder.span("xtree.events"):
            for _event in iter_events_path(path):
                pass
        with recorder.span("engine.stream"):
            stats = stream_map_to_path(instmap, work / "sweep-stream.out",
                                       path=path)
    events = recorder.median_ms("xtree.events") / 1e3
    streamed = recorder.median_ms("engine.stream") / 1e3
    # Every fragment the streamer handled: star frames streamed live,
    # Empty subtrees skipped, and the fragments it buffered.
    handled = (stats.frames_streamed + stats.subtrees_skipped
               + stats.fragments_buffered)
    return {"xtree.events_mb_s": size / events / 1e6,
            "engine.stream_self_mb_s": size / (streamed - events) / 1e6,
            "engine.fragments_buffered_share":
                stats.fragments_buffered / handled}


def pool_layers(inputs: Inputs, store: Path, work: Path,
                recorder: Recorder) -> dict:
    """Corpus reading and the fork pool, on the run's documents cycled
    into a corpus of the same size mix."""
    sigma = inputs.embeddings["doc"]
    path = work / "sweep-corpus.ndjson"
    write_ndjson((CorpusDocument(f"doc-{i:05d}",
                                 inputs.docs[i % len(inputs.docs)])
                  for i in range(POOL_CORPUS_DOCS)), path)
    size = 0
    with recorder.span("engine.corpus_read"):
        for document in iter_corpus(path):
            size += len(document.text)
    for jobs in (1, 2):
        with recorder.span(f"engine.jobs{jobs}"):
            ParallelRunner(jobs=jobs, store=store).map_corpus(sigma, path)
    tiny = [("a", inputs.docs[0]), ("b", inputs.docs[1])]
    for _ in range(3):
        with recorder.span("engine.pool_overhead"):
            ParallelRunner(jobs=2, store=store).map_corpus(sigma, tiny)
    return {"engine.corpus_read_mb_s":
                size / recorder.total("engine.corpus_read") / 1e6,
            "engine.parallel_efficiency":
                recorder.total("engine.jobs1")
                / (2 * recorder.total("engine.jobs2")),
            "engine.pool_overhead_ms":
                recorder.median_ms("engine.pool_overhead")}


def setup_layers(recorder: Recorder) -> dict:
    return {f"{name}_ms": recorder.median_ms(name)
            for name in ("engine.compile", "engine.codegen",
                         "engine.save_store", "engine.pack",
                         "engine.warm_start", "serve.ready")}


def hit_ratio(metrics_body: bytes) -> float:
    """Translation-cache hits ÷ lookups, from the daemon's /metrics."""
    counters = json.loads(metrics_body)["engine"]["translations"]
    lookups = counters["hits"] + counters["misses"]
    return counters["hits"] / lookups if lookups else 0.0
