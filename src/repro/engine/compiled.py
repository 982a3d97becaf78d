"""Compiled schema/embedding artifacts — "compile once, serve many".

The paper presents InstMap, ``Tr`` and ``σd⁻¹`` as one-shot algorithms;
a serving system runs them millions of times against a handful of
schemas and embeddings.  Everything that depends only on the schema or
the embedding — never on the document or query — is hoisted here:

* :class:`CompiledSchema` — an immutable, hashable wrapper over a
  :class:`~repro.dtd.model.DTD` precomputing the production graph, the
  reachability closure, the mindef templates, and the per-type target
  path indexes that :mod:`repro.matching.local` enumerates during
  embedding search;
* :class:`CompiledEmbedding` — a validated-at-most-once σ carrying the
  prebuilt pfrag templates (the :class:`~repro.core.instmap.InstMap`)
  and the per-edge ANFA translation table of a persistent
  :class:`~repro.core.translate.Translator`; ``σd⁻¹`` needs nothing
  compiled and runs the reference walker.

Both are keyed by *content fingerprints* (``DTD.fingerprint()`` /
``SchemaEmbedding.fingerprint()``): rebuilding an equal schema from
text reuses the artifact, mutating one in place misses the cache.

Related systems compile the same way: Genevès et al. (PLDI 2008)
precompile schemas into tree automata reused across query-compatibility
checks, and injective tree-pattern matchers precompute per-edge
automaton tables.  The caching session lives in
:mod:`repro.engine.session`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.embedding import SchemaEmbedding
from repro.core.instmap import InstMap, MappingResult
from repro.core.inverse import run_invert
from repro.core.translate import Translator
from repro.dtd.mindef import MinDef
from repro.dtd.model import DTD, Edge
from repro.matching.prefix_free import PathKind, PathRequest, enumerate_paths
from repro.xpath.ast import PathExpr
from repro.xtree.nodes import ElementNode
from repro.anfa.model import ANFA
from repro.xpath.paths import XRPath


class CompiledSchema:
    """An immutable, hashable compilation of one DTD.

    Construction walks the schema once; afterwards every view that the
    hot paths consult — production-graph edges, reachability, mindef
    padding templates, candidate target paths — is a dictionary lookup.
    Treat instances as frozen: they are shared between every embedding
    and search using the schema.
    """

    __slots__ = ("dtd", "fingerprint", "edges", "_mindef", "_paths",
                 "_reachable")

    def __init__(self, dtd: DTD) -> None:
        self.dtd = dtd
        self.fingerprint = dtd.fingerprint()
        # Production graph, fully materialised (also prewarms the
        # DTD's own lazy edge cache for code holding the raw object).
        self.edges: dict[str, tuple[Edge, ...]] = {
            element_type: dtd.edges_from(element_type)
            for element_type in dtd.types}
        self._mindef: Optional[MinDef] = None
        #: per-type target-path index: (image, kind, end, caps) -> paths
        self._paths: dict[tuple, list[XRPath]] = {}
        self._reachable: Optional[frozenset[str]] = None

    # -- graph views (lazy, computed once per artifact) -------------------
    @property
    def reachable(self) -> frozenset[str]:
        """The reachability closure from the root."""
        if self._reachable is None:
            self._reachable = frozenset(self.dtd.reachable_types())
        return self._reachable

    @property
    def mindef(self) -> MinDef:
        """The shared mindef templates (lazy: only consistent schemas
        have one, and matching-only sources never need it)."""
        if self._mindef is None:
            self._mindef = MinDef(self.dtd)
        return self._mindef

    # -- per-type target-path index ---------------------------------------
    def paths(self, image: str, kind: PathKind, end: Optional[str],
              max_len: int, max_paths: int) -> list[XRPath]:
        """Candidate XR paths of ``kind`` from ``image`` (to ``end``),
        memoised per (type, kind, endpoint, caps).

        This is the enumeration :class:`repro.matching.local.LocalEmbedder`
        performs in its inner backtracking loop; serving it from the
        compiled schema shares the work across embedder instances,
        restarts, and whole searches.  Callers must not mutate the
        returned list.
        """
        key = (image, kind, end, max_len, max_paths)
        cached = self._paths.get(key)
        if cached is None:
            cached = enumerate_paths(self.dtd, image, PathRequest(kind, end),
                                     max_len, max_paths)
            self._paths[key] = cached
        return cached

    # -- identity ---------------------------------------------------------
    def __hash__(self) -> int:
        return int(self.fingerprint[:16], 16)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, CompiledSchema)
                and other.fingerprint == self.fingerprint)

    def __repr__(self) -> str:
        return (f"CompiledSchema({self.dtd.name!r}, "
                f"types={len(self.edges)}, fp={self.fingerprint[:12]})")


class CompiledEmbedding:
    """A fully compiled σ: validate once, then serve documents/queries.

    * mapping  — ``instmap`` holds the pre-classified pfrag templates;
    * querying — ``translator`` holds the per-edge ANFA table (primed at
      compile time) and a structural ``Trl`` memo that persists across
      queries;
    * inversion — the reference walker reads the embedding's memoised
      path classifications (shared with the above) and compiles
      nothing.

    Validation is *separate* from compilation (:meth:`ensure_valid`):
    callers that historically skipped validation (``validate=False``,
    ``invert``) keep their exact behaviour while validating callers pay
    the check at most once per fingerprint.
    """

    __slots__ = ("embedding", "fingerprint", "source_schema",
                 "target_schema", "translator", "edge_table_size",
                 "_instmap", "_validated")

    def __init__(self, embedding: SchemaEmbedding,
                 source_schema: Optional[CompiledSchema] = None,
                 target_schema: Optional[CompiledSchema] = None) -> None:
        self.embedding = embedding
        self.fingerprint = embedding.fingerprint()
        self.source_schema = source_schema or CompiledSchema(embedding.source)
        self.target_schema = target_schema or CompiledSchema(embedding.target)
        # per-edge ANFA translation table + persistent Trl memo.
        self.translator = Translator(embedding)
        self.edge_table_size = self.translator.prime_edges()
        # pfrag templates are built on the first mapping (translation /
        # inversion never need them, and the lazy build keeps error
        # behaviour for broken embeddings identical to the seed's
        # lazy classification).
        self._instmap: Optional[InstMap] = None
        self._validated = False

    @property
    def instmap(self) -> InstMap:
        """The precompiled InstMap: every edge path classified once,
        the mindef padding shared with the compiled target schema."""
        if self._instmap is None:
            # Share the compiled target mindef with the embedding's
            # own lazy slot (R2 checks) and the InstMap padding.
            if self.embedding._mindef is None:
                self.embedding._mindef = self.target_schema.mindef
            self._instmap = InstMap(self.embedding, validate=False,
                                    mindef=self.target_schema.mindef)
        return self._instmap

    # -- validation --------------------------------------------------------
    def ensure_valid(self) -> "CompiledEmbedding":
        """Run the Section 4.1 validity check at most once."""
        if not self._validated:
            self.embedding.check()
            self._validated = True
        return self

    def mark_validated(self) -> None:
        """Record an external successful check (the engine validates
        *before* compiling so invalid embeddings raise the aggregated
        ``EmbeddingError`` rather than a construction error)."""
        self._validated = True

    @property
    def validated(self) -> bool:
        return self._validated

    # -- serving -----------------------------------------------------------
    def apply(self, source_root: ElementNode) -> MappingResult:
        """``σd(T1)`` via the precompiled InstMap."""
        return self.instmap.apply(source_root)

    def translate(self, query: PathExpr,
                  context_type: Optional[str] = None) -> ANFA:
        """``Tr(Q)`` via the persistent translator."""
        return self.translator.translate(query, context_type)

    def invert(self, target_root: ElementNode,
               strict: bool = True) -> ElementNode:
        """``σd⁻¹`` via the reference walker, which is also the oracle
        (it reads the embedding's own path classifications and never
        compiles the mapping programs)."""
        return run_invert(self.embedding, target_root, strict=strict)

    # -- generated codec ----------------------------------------------------
    @property
    def codec(self):
        """The generated codec of this embedding's InstMap
        (:attr:`InstMap.codec`), or ``None`` when the generator refuses
        the embedding's shape."""
        return self.instmap.codec

    def map_text(self, text: str) -> str:
        """Serialized ``σd`` of an XML text (:meth:`InstMap.map_text`)."""
        return self.instmap.map_text(text)

    # -- identity -----------------------------------------------------------
    def __hash__(self) -> int:
        return int(self.fingerprint[:16], 16)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, CompiledEmbedding)
                and other.fingerprint == self.fingerprint)

    def __repr__(self) -> str:
        return (f"CompiledEmbedding({self.embedding.source.name!r} -> "
                f"{self.embedding.target.name!r}, "
                f"edges={self.edge_table_size}, fp={self.fingerprint[:12]})")
