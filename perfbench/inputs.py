"""Seeded inputs for every workload, and the outputs they must produce.

One ``--seed`` drives every generator here; the program only ever sees
the generated inputs.  Expected outputs come from direct in-process
calls made before anything is timed:

* maps: ``Engine.map_text``; inverts: ``to_string(Engine.invert(...))``;
* translations: ``ANFA.canonical_describe`` of ``Engine.translate_query``;
* evolve requests: ``EvolutionReport.to_payload``;
* the batch corpus: the ``ParallelRunner(jobs=1)`` outputs;
* the stream document: the buffered ``to_string`` of a bufferable
  prefix, plus the output length that prefix implies for the whole
  document (checked against ``StreamStats.chars_out``).

Translation renderings, also those inside evolve payloads, are compared
through :func:`anfa_shape` rather than byte for byte (see there why).
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random
import re
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.core.embedding import build_embedding
from repro.core.instmap import InstMap
from repro.dtd.generate import InstanceGenerator
from repro.engine import CorpusDocument, Engine, ParallelRunner, write_ndjson
from repro.engine.stream import iter_mapped
from repro.schema import load_schema
from repro.workloads.evolution import scaled_case
from repro.workloads.noise import expand_schema
from repro.workloads.queries import random_queries
from repro.workloads.synthetic import random_dtd
from repro.xtree.parser import parse_xml
from repro.xtree.serialize import to_string

#: Source document size mix, as (share, low bytes, high bytes) strata,
#: log-uniform inside each: mostly small documents with a tail to 64 KB.
#: The strata are filled in fixed proportions, so every seed gets the
#: same size profile with different content.
SIZE_MIX = ((0.60, 512, 2048), (0.25, 2048, 8192), (0.15, 8192, 65536))
#: Invert bodies are mapped documents (about 10x their source); their
#: sources are capped at 4 KB (bodies up to ~50 KB), so a few very
#: large inverts do not make up the whole p99 tail on their own.
INVERT_SOURCE_MAX = 4096
#: The Engine's translation LRU holds 1024 entries; the cold pool is
#: four times that, so cold draws almost always miss.
HOT_QUERIES = 64
COLD_QUERIES = 4096
DEEP_SHARE = 0.03
DEEP_DEPTHS = (32, 128)
EVOLVE_POOL = 200
EVOLVE_WINDOW = 25
#: The stream document: a prefix block of fragments repeated until the
#: document passes the target size.
STREAM_BLOCK_BYTES = 512 * 1024
STREAM_TARGET_BYTES = 10 * 1024 * 1024


def doc_embedding():
    """The 60-type document schema of the serve and batch workloads
    (its root is a disjunction, so streaming it buffers everything)."""
    return expand_schema(random_dtd(60, seed=7), seed=3).embedding


def chain_embedding():
    """A recursive-star pair: every step of ``node/…/node`` translates
    through one star edge."""
    source = load_schema("node -> node*", format="compact",
                         name="chain-src")
    target = load_schema("wrap -> inner\ninner -> wrap*",
                         format="compact", root="wrap", name="chain-tgt")
    return build_embedding(source, target, {"node": "wrap"},
                           {("node", "node"): "inner/wrap"})


#: The stream workload's source schema: a log of days, each a star of
#: entries.  Under its expansion the streamer streams the root and every
#: ``day`` as star frames and buffers each ``entry`` (a concat of
#: strings, a disjunction and a nested star) on its own.
STREAM_SCHEMA = """
log -> day*
day -> entry*
entry -> stamp, level, body, tags
stamp -> str
level -> info + warn + error
info -> eps
warn -> eps
error -> str
body -> str
tags -> tag*
tag -> str
"""


def stream_embedding():
    """The stream schema expanded into a target whose ``log`` and
    ``day`` images stream (other expansion seeds wrap the star
    instances, and the streamer then buffers every ``day`` whole)."""
    source = load_schema(STREAM_SCHEMA, format="compact", name="log")
    return expand_schema(source, seed=7, wrap_max=2,
                         junk_prob=0.1).embedding


def digest(outputs) -> str:
    """Order-sensitive digest of rendered outputs, each written as its
    own line-terminated file body."""
    hasher = hashlib.sha256()
    for output in outputs:
        hasher.update(output.encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


_REFERENCE = re.compile(r"\bM\d+\b")


def anfa_shape(rendering: str) -> str:
    """A digest of an ``ANFA.canonical_describe`` rendering that ignores
    how sub-automata were shared.

    The rendering names sub-automata by object identity, so a
    translation whose two call sites share one memoised sub-automaton
    renders it once (``M3``) while the same translation built after
    another serving history renders two equal copies (``M3``, ``M4``).
    Each block is hashed with its references replaced by the hashes of
    the blocks they name; equal translations get equal digests."""
    blocks = {}
    for chunk in rendering.strip().split("\n\n"):
        head, _, body = chunk.partition("\n")
        name, _, rest = head[len("ANFA "):].partition(":")
        blocks[name] = rest + "\n" + body
    digests: dict[str, str] = {}

    def block_digest(name: str) -> str:
        if name not in digests:
            text = _REFERENCE.sub(lambda m: block_digest(m.group(0)),
                                  blocks[name])
            digests[name] = hashlib.sha256(text.encode()).hexdigest()[:16]
        return digests[name]

    return block_digest("M0")


def evolve_shape(payload: dict) -> dict:
    """An evolve payload with each verdict's ANFA rendering replaced by
    its :func:`anfa_shape`."""
    verdicts = [dict(row, anfa=anfa_shape(row["anfa"]))
                if isinstance(row.get("anfa"), str) else row
                for row in payload.get("verdicts", [])]
    return dict(payload, verdicts=verdicts)


def _target_size(q: float) -> float:
    for share, low, high in SIZE_MIX:
        if q < share:
            return low * (high / low) ** (q / share)
        q -= share
    return float(SIZE_MIX[-1][2])


def _stratum(size: float) -> int:
    for index, (_, _, high) in enumerate(SIZE_MIX):
        if size < high:
            return index
    return len(SIZE_MIX) - 1


def source_documents(source, count: int, rng: random.Random) -> list[str]:
    """``count`` distinct conforming documents whose sizes follow
    :data:`SIZE_MIX` (stratified: document i targets quantile
    ``(i + jitter) / count``), in a seeded random order."""
    targets = sorted(_target_size((i + rng.random()) / count)
                     for i in range(count))
    # One generator per stratum, its star mean tuned to land mostly
    # inside the stratum; candidates outside every stratum are dropped.
    generators = [InstanceGenerator(source, seed=rng.randrange(1 << 30),
                                    max_depth=12, star_mean=mean)
                  for mean in (2.0, 4.0, 6.0)]
    low, high = SIZE_MIX[0][1], SIZE_MIX[-1][2]
    pools: list[list[tuple[int, str]]] = [[] for _ in SIZE_MIX]
    needed = [0] * len(SIZE_MIX)
    for target in targets:
        needed[_stratum(target)] += 1
    seen: set[str] = set()
    for _ in range(200 * count):
        if all(len(pool) >= 2 * need for pool, need in zip(pools, needed)):
            break
        for index, generator in enumerate(generators):
            if len(pools[index]) >= 2 * needed[index]:
                continue
            text = to_string(generator.generate())
            if not low <= len(text) <= high or text in seen:
                continue
            seen.add(text)
            pools[_stratum(len(text))].append((len(text), text))
    candidates = sorted(item for pool in pools for item in pool)
    if len(candidates) < count:
        raise RuntimeError(f"generated {len(candidates)} of {count} "
                           "documents in the size mix")
    sizes = [size for size, _ in candidates]
    chosen: list[str] = []
    for target in targets:
        at = bisect.bisect_left(sizes, target)
        if at == len(sizes) or (at > 0 and target - sizes[at - 1]
                                < sizes[at] - target):
            at -= 1
        chosen.append(candidates.pop(at)[1])
        sizes.pop(at)
    rng.shuffle(chosen)
    return chosen


def distinct_queries(source, count: int, rng: random.Random) -> list[str]:
    out: list[str] = []
    seen: set[str] = set()
    while len(out) < count:
        for query in random_queries(source, 2 * count, max_steps=7,
                                    seed=rng.randrange(1 << 30)):
            text = str(query)
            if text not in seen:
                seen.add(text)
                out.append(text)
                if len(out) == count:
                    break
    return out


def deep_chains(count: int, rng: random.Random) -> list[str]:
    """Distinct ``node/…/node`` chains of depth 32–128; half carry a
    position qualifier on one step so depths can repeat."""
    out: list[str] = []
    seen: set[str] = set()
    while len(out) < count:
        depth = rng.randint(*DEEP_DEPTHS)
        steps = ["node"] * depth
        if rng.random() < 0.5:
            steps[rng.randrange(depth)] = (
                f"node[position()={rng.randint(1, 3)}]")
        text = "/".join(steps)
        if text not in seen:
            seen.add(text)
            out.append(text)
    return out


@dataclass
class Query:
    text: str
    embedding: str          # which embedding: "doc" or "chain"
    expected: str           # anfa_shape of the translation


@dataclass
class EvolveWindow:
    queries: list[str]
    expected: dict          # evolve_shape of EvolutionReport.to_payload


@dataclass
class Inputs:
    """Everything one run sends, with its expected outputs."""

    seed: int
    embeddings: dict                        # role -> SchemaEmbedding
    docs: list[str] = field(default_factory=list)
    mapped: list[str] = field(default_factory=list)
    #: indexes into ``docs`` whose mapped output is an invert body
    invert_ids: list[int] = field(default_factory=list)
    inverted: dict = field(default_factory=dict)   # doc index -> text
    hot: list[Query] = field(default_factory=list)
    cold: list[Query] = field(default_factory=list)
    deep: list[Query] = field(default_factory=list)
    windows: list[EvolveWindow] = field(default_factory=list)
    evolve_case: object = None
    corpus_path: Optional[Path] = None
    corpus_bytes: int = 0
    corpus_docs: int = 0
    corpus_digest: str = ""
    corpus_sizes: list[int] = field(default_factory=list)
    stream_path: Optional[Path] = None
    stream_bytes: int = 0
    stream_fragments: int = 0
    stream_prefix_path: Optional[Path] = None
    stream_expected_chars: int = 0
    stream_expected_head: str = ""
    stream_prefix_ok: bool = False

    def facts(self) -> dict:
        """Input facts recorded with every result."""
        sizes = sorted(len(doc) for doc in self.docs)
        facts = {
            "seed": self.seed,
            "docs": len(self.docs),
            "doc_bytes_quartiles": _quartiles(sizes),
            "docs_mb": round(sum(sizes) / 1e6, 3),
            "invert_bodies": len(self.invert_ids),
            "invert_body_bytes_quartiles": _quartiles(sorted(
                len(self.mapped[i]) for i in self.invert_ids)),
            "hot_queries": len(self.hot),
            "cold_queries": len(self.cold),
            "deep_chain_queries": len(self.deep),
            "evolve_queries_per_request": EVOLVE_WINDOW,
            "evolve_windows": len(self.windows),
        }
        if self.corpus_path is not None:
            facts.update(corpus_docs=self.corpus_docs,
                         corpus_mb=round(self.corpus_bytes / 1e6, 3),
                         corpus_doc_bytes_quartiles=_quartiles(
                             sorted(self.corpus_sizes)))
        if self.stream_path is not None:
            facts.update(stream_mb=round(self.stream_bytes / 1e6, 3),
                         stream_fragments=self.stream_fragments)
        return facts


def _quartiles(values: list[int]) -> list[float]:
    if len(values) < 2:
        return [float(v) for v in values]
    return [round(v, 1) for v in statistics.quantiles(values, n=4)]


def make_inputs(seed: int, work: Path, *, docs: int, inverts: int,
                cold: int, deep: int, corpus: int = 0,
                stream_bytes: int = 0) -> Inputs:
    """Generate a run's inputs under ``work`` and compute the oracle."""
    rng = random.Random(seed)
    doc_sigma, chain_sigma = doc_embedding(), chain_embedding()
    case = scaled_case(EVOLVE_POOL, seed=rng.randrange(1 << 30))
    inputs = Inputs(seed=seed,
                    embeddings={"doc": doc_sigma, "chain": chain_sigma,
                                "evolve": case.embedding},
                    evolve_case=case)
    oracle = Engine()

    inputs.docs = source_documents(doc_sigma.source, docs, rng)
    inputs.mapped = [oracle.map_text(doc_sigma, doc) for doc in inputs.docs]
    # Invert bodies at evenly spaced size quantiles of the eligible
    # sources, so every seed inverts the same size profile.
    small = sorted((len(doc), i) for i, doc in enumerate(inputs.docs)
                   if len(doc) <= INVERT_SOURCE_MAX)
    inputs.invert_ids = [small[(k * len(small)) // inverts][1]
                         for k in range(inverts)]
    for i in inputs.invert_ids:
        inputs.inverted[i] = to_string(
            oracle.invert(doc_sigma, parse_xml(inputs.mapped[i])))

    def translated(text: str, role: str) -> Query:
        anfa = oracle.translate_query(inputs.embeddings[role], text)
        return Query(text, role, anfa_shape(anfa.canonical_describe()))

    texts = distinct_queries(doc_sigma.source, HOT_QUERIES + cold, rng)
    inputs.hot = [translated(t, "doc") for t in texts[:HOT_QUERIES]]
    inputs.cold = [translated(t, "doc") for t in texts[HOT_QUERIES:]]
    inputs.deep = [translated(t, "chain") for t in deep_chains(deep, rng)]

    for start in range(0, EVOLVE_POOL, EVOLVE_WINDOW):
        window = list(case.queries[start:start + EVOLVE_WINDOW])
        report = oracle.evolve(case.old, case.new, window,
                               embedding=case.embedding)
        inputs.windows.append(EvolveWindow(window, evolve_shape(
            json.loads(json.dumps(report.to_payload())))))

    if corpus:
        _make_corpus(inputs, work, corpus, rng)
    if stream_bytes:
        _make_stream(inputs, work, stream_bytes, rng)
    return inputs


def _make_corpus(inputs: Inputs, work: Path, count: int,
                 rng: random.Random) -> None:
    texts = source_documents(inputs.embeddings["doc"].source, count, rng)
    inputs.corpus_path = work / "corpus.ndjson"
    write_ndjson((CorpusDocument(f"doc-{i:05d}", text)
                  for i, text in enumerate(texts)), inputs.corpus_path)
    inputs.corpus_docs = len(texts)
    inputs.corpus_sizes = [len(text) for text in texts]
    inputs.corpus_bytes = sum(inputs.corpus_sizes)
    outcomes = ParallelRunner(jobs=1).map_corpus(inputs.embeddings["doc"],
                                                 inputs.corpus_path)
    if not all(outcome.ok for outcome in outcomes):
        raise RuntimeError("the jobs=1 reference run failed a document")
    inputs.corpus_digest = digest(outcome.output for outcome in outcomes)


def stream_document(path: Path, target_bytes: int, rng: random.Random
                    ) -> tuple[str, int, int, int]:
    """Write ``<log>`` + a block of generated fragments repeated until
    the file reaches ``target_bytes``; only one block is ever held in
    memory.  Returns (block, fragments per block, bytes written,
    block repeats)."""
    sigma = stream_embedding()
    root = sigma.source.root
    child = sigma.source.production(root).child
    generator = InstanceGenerator(sigma.source, seed=rng.randrange(1 << 30),
                                  max_depth=12, star_mean=3.0)
    fragments: list[str] = []
    size = 0
    while size < min(STREAM_BLOCK_BYTES, target_bytes):
        fragment = to_string(generator.generate(child, 1))
        fragments.append(fragment)
        size += len(fragment) + 1
    block = "\n".join(fragments) + "\n"
    written = 0
    repeats = 0
    with open(path, "w") as handle:
        written += handle.write(f"<{root}>\n")
        while written < target_bytes:
            written += handle.write(block)
            repeats += 1
        written += handle.write(f"</{root}>\n")
    return block, len(fragments), written, repeats


def _make_stream(inputs: Inputs, work: Path, target: int,
                 rng: random.Random) -> None:
    sigma = stream_embedding()
    inputs.embeddings["stream"] = sigma
    root = sigma.source.root
    inputs.stream_path = work / "stream.xml"
    block, per_block, inputs.stream_bytes, repeats = stream_document(
        inputs.stream_path, target, rng)
    inputs.stream_fragments = per_block * repeats
    instmap = InstMap(sigma)

    def buffered(copies: int) -> str:
        text = f"<{root}>\n" + block * copies + f"</{root}>\n"
        return to_string(instmap.apply(parse_xml(text)).tree)

    one, two = buffered(1), buffered(2)
    prefix = f"<{root}>\n" + block + f"</{root}>\n"
    inputs.stream_prefix_path = work / "stream-prefix.xml"
    inputs.stream_prefix_path.write_text(prefix)
    # The streamer must agree with the buffered path where buffering is
    # cheap; on the whole document each extra block adds exactly the
    # characters the second block added here.
    inputs.stream_prefix_ok = "".join(iter_mapped(instmap,
                                                  text=prefix)) == one
    inputs.stream_expected_chars = len(one) + (repeats - 1) * (
        len(two) - len(one))
    # The first two blocks' output, short of the closing tags (which
    # are far shorter than the slack), must open the streamed output.
    inputs.stream_expected_head = two[:max(0, len(two) - 4096)]
