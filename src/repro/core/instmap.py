"""The instance-level mapping ``σd`` — algorithm InstMap (Section 4.2).

Given a valid embedding ``σ = (λ, path) : S1 → S2`` and an instance
``T1`` of ``S1``, InstMap builds ``T2 = σd(T1)`` top-down by repeatedly
replacing a *hot* node with the *production fragment* of its source
node (Fig. 5):

1. the root of ``T2`` is a copy of the root of ``T1`` relabelled
   ``λ(r1)``, and is hot;
2. the production fragment ``pfrag_A(v)`` of a source node ``v`` of
   type ``A`` adds, for each child ``v'`` of ``v``, the target path
   ``path(A, B)`` below the image of ``v`` — sharing the longest prefix
   already present — and marks the path's endpoint hot with
   ``src = v'``;
3. required target positions not on any path are padded with minimum
   default instances (``mindef``), and children are sorted into
   production/position order;
4. the node-id mapping ``idM`` records, for every hot node (and every
   text node copied for a ``str`` production), the source node it was
   mapped from.

The algorithm runs in time linear in ``|T1| + |T2|`` (each source node
enters the hot set exactly once).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Hashable, Optional

from repro.core.embedding import STR_KEY, EdgeKey, SchemaEmbedding
from repro.core.errors import EmbeddingError
from repro.dtd.mindef import DEFAULT_STRING, MinDef
from repro.dtd.model import (
    Concat,
    Disjunction,
    EdgeKind,
    Empty,
    Star,
    Str,
)
from repro.xpath.paths import PathInfo
from repro.xtree.nodes import ElementNode, TextNode
from repro.xtree.parser import parse_xml
from repro.xtree.serialize import to_string

_SlotKey = Hashable


@dataclass
class MappingResult:
    """``σd(T1)`` together with the id mapping of Section 2.3."""

    tree: ElementNode
    #: ``idM``: target node id -> source node id (partial; defined on
    #: images of source nodes, undefined on padding).
    idM: dict[int, int]
    #: the inverse view, source id -> target id (σd is injective,
    #: Theorem 4.1, so this is well defined).
    source_to_target: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.source_to_target:
            self.source_to_target = {s: t for t, s in self.idM.items()}


class InstMap:
    """A compiled instance mapping for one (validated) embedding.

    Construction pre-classifies every edge path, then compiles the
    per-source-type **mapping programs** of
    :mod:`repro.engine.plan` — flat instruction sequences with slot
    keys, path-step templates and mindef padding resolved at compile
    time.  :meth:`apply` interprets the programs iteratively, and
    :meth:`map_text` renders text through the generated :attr:`codec`
    that specialises them; the
    reference builder (:class:`_FragmentBuilder`) is kept both as the
    per-fragment fallback for documents whose shape the static program
    does not cover and as the oracle for the fast-path equivalence
    suite (:meth:`apply_reference`).  Embeddings the compiler rejects
    (possible only with ``validate=False``) run entirely on the
    reference path, preserving their error behaviour exactly.
    """

    def __init__(self, embedding: SchemaEmbedding, validate: bool = True,
                 mindef: Optional[MinDef] = None) -> None:
        if validate:
            embedding.check()
        self.embedding = embedding
        self.source = embedding.source
        self.target = embedding.target
        # A precompiled target mindef (from a CompiledSchema) can be
        # shared across every InstMap over the same target.
        self.mindef = mindef if mindef is not None else MinDef(self.target)
        # Pre-classify every edge path once.
        self._infos: dict[EdgeKey, PathInfo] = {
            key: embedding.info(key) for key, _ in embedding.edge_keys()}
        # The generated codec: None until first use, False if refused.
        self._codec = None
        # Compile the document-plane fast path (lazy import: the engine
        # package imports this module).
        # lint: allow-lazy-import — breaks the instmap<->plan cycle
        from repro.engine.plan import MappingProgram, PlanError

        try:
            self._program = MappingProgram(embedding, self.mindef,
                                           self._infos, self)
        except PlanError:
            # The compiler's own "shape is not static" signal: serve
            # from the reference path with identical behaviour.
            self._program = None
        except Exception:
            if validate:
                # A *validated* embedding must compile — anything else
                # is a compiler bug, and silently degrading to the
                # reference path would hide a 4x perf loss with zero
                # signal.  Surface it.
                raise
            # Unvalidated embeddings may be arbitrarily broken; the
            # reference path keeps the seed's exact lazy error
            # behaviour (errors surface at apply, not construction).
            self._program = None

    # ------------------------------------------------------------------
    def __call__(self, source_root: ElementNode) -> MappingResult:
        return self.apply(source_root)

    def apply(self, source_root: ElementNode) -> MappingResult:
        """Run InstMap on ``T1`` (Fig. 5) through the compiled programs."""
        if self._program is not None:
            return self._program.apply(source_root)
        return self.apply_reference(source_root)

    def apply_reference(self, source_root: ElementNode) -> MappingResult:
        """The reference builder — byte-identical oracle for the fast
        path (``tests/test_fastpath_equivalence.py``)."""
        if source_root.tag != self.source.root:
            raise EmbeddingError(
                f"instance root <{source_root.tag}> is not the source root "
                f"<{self.source.root}>")
        target_root = ElementNode(self.embedding.lam[source_root.tag])
        id_map: dict[int, int] = {target_root.node_id: source_root.node_id}
        hot: deque[tuple[ElementNode, ElementNode]] = deque(
            [(target_root, source_root)])
        while hot:
            image, source_node = hot.popleft()
            fragment = _FragmentBuilder(self, image)
            hot.extend(fragment.build(source_node, id_map))
        return MappingResult(target_root, id_map)

    def map_text(self, text: str) -> str:
        """Serialized ``σd`` of an XML text through the generated
        :attr:`codec` — byte-identical to
        ``to_string(self.apply(parse_xml(text)).tree)``, which serves
        embeddings the codec generator refuses."""
        codec = self.codec
        if codec is not None:
            return codec.map_text(text)
        return to_string(self.apply(parse_xml(text)).tree)

    @property
    def codec(self):
        """The generated codec bound to this InstMap (parse, map and
        serialize fused; the text executor), or ``None`` when the
        generator refuses the embedding's shape.  Generated at most once
        per InstMap; warm starts attach cached source instead
        (:meth:`attach_codec`)."""
        if self._codec is None:
            # lint: allow-lazy-import — the engine package imports this module
            from repro.engine.codegen import CodecError, generate_codec

            try:
                self._codec = generate_codec(
                    self, source_fingerprint=self.source.fingerprint(),
                    target_fingerprint=self.target.fingerprint(),
                    embedding_fingerprint=self.embedding.fingerprint())
            except CodecError:
                self._codec = False  # shape refused: no codec
        return self._codec or None

    def attach_codec(self, source: str) -> None:
        """Bind codec source cached in an artifact store instead of
        generating it.  Source of another codec layout is ignored; the
        codec is then generated on first use."""
        # lint: allow-lazy-import — the engine package imports this module
        from repro.engine.codegen import CodecError, compile_codec

        try:
            self._codec = compile_codec(source, self)
        except CodecError:
            self._codec = None

    def build_fragment(self, image: ElementNode, source_node: ElementNode,
                       id_map: dict[int, int],
                       ) -> list[tuple[ElementNode, ElementNode]]:
        """One reference production fragment (the fast path's fallback
        for fragments with a non-static shape)."""
        return _FragmentBuilder(self, image).build(source_node, id_map)

    def fragment_pairs(self, image: ElementNode, source_node: ElementNode,
                       id_map: dict[int, int],
                       ) -> list[tuple[ElementNode, ElementNode]]:
        """One production fragment through the compiled plane where
        possible: static and sparse-concat shapes run at compiled
        speed, everything else (including malformed documents, for
        their exact error bytes) through the reference builder.  The
        one splice entry point of the interpreter and the generated
        codecs; ``reference_fallbacks`` counts the fragments of both
        that reach the reference builder."""
        if self._program is not None:
            pairs = self._program.sparse_fragment(image, source_node, id_map)
            if pairs is not None:
                return pairs
            self._program.reference_fallbacks += 1
        return self.build_fragment(image, source_node, id_map)

    def info(self, key: EdgeKey) -> PathInfo:
        try:
            return self._infos[key]
        except KeyError:
            # Reached when an instance presents a child edge the schema
            # (and hence the embedding) does not declare — a malformed
            # document, not an internal error.
            raise EmbeddingError(
                f"instance edge ({key[0]}, {key[1]}, occ {key[2]}) is not "
                "covered by the embedding (document does not conform to "
                "the source schema)") from None


class _FragmentBuilder:
    """Builds one production fragment ``pfrag_A(v)`` in place.

    ``slots`` tracks, per created node, which production positions /
    star instances / OR choice its children occupy — the paper's
    ``pos()`` bookkeeping.  Completion then pads missing required
    positions with mindef copies and sorts children into slot order.
    """

    def __init__(self, instmap: InstMap, root: ElementNode) -> None:
        self.instmap = instmap
        self.root = root
        self.slots: dict[int, dict[_SlotKey, ElementNode]] = {
            root.node_id: {}}
        self.hot_ids: set[int] = set()

    # -- path walking -----------------------------------------------------
    def _slot_key(self, parent: ElementNode, step, edge,
                  carrier_instance: Optional[int]) -> _SlotKey:
        production = self.instmap.target.production(parent.tag)
        if edge.kind is EdgeKind.AND:
            assert isinstance(production, Concat)
            occ = step.pos if step.pos is not None else 1
            return ("c", production.index_of_occurrence(step.label, occ))
        if edge.kind is EdgeKind.OR:
            return ("o",)
        assert edge.kind is EdgeKind.STAR
        if step.pos is not None:
            return ("s", step.pos)
        if carrier_instance is None:
            raise EmbeddingError(
                f"unpinned star step {step} outside a STAR path walk")
        return ("s", carrier_instance)

    def _walk(self, info: PathInfo,
              carrier_instance: Optional[int] = None) -> ElementNode:
        """Add ``info.path`` below the fragment root, sharing the longest
        existing prefix; return the endpoint (the hot leaf)."""
        node = self.root
        for step, edge in zip(info.path.steps, info.edges):
            slot_map = self.slots[node.node_id]
            key = self._slot_key(node, step, edge, carrier_instance)
            existing = slot_map.get(key)
            if existing is not None:
                if existing.tag != step.label:
                    raise EmbeddingError(
                        f"conflicting OR choices under <{node.tag}>: "
                        f"{existing.tag} vs {step.label}")
                node = existing
                continue
            child = ElementNode(step.label)
            node.append(child)
            slot_map[key] = child
            self.slots[child.node_id] = {}
            node = child
        if self.slots[node.node_id]:
            raise EmbeddingError(
                f"path endpoint <{node.tag}> is interior to a sibling path "
                "(prefix-free condition violated)")
        return node

    # -- fragment construction ---------------------------------------------
    def build(self, source_node: ElementNode, id_map: dict[int, int],
              ) -> list[tuple[ElementNode, ElementNode]]:
        instmap = self.instmap
        source_type = source_node.tag
        expected = instmap.embedding.lam.get(source_type)
        if expected is None:
            # An element type the embedding's λ never covers: malformed
            # corpus input, not an internal error.
            raise EmbeddingError(
                f"instance element <{source_type}> is not a source type "
                "of the embedding (document does not conform to the "
                "source schema)")
        if self.root.tag != expected:
            raise EmbeddingError(
                f"image of <{source_type}> has tag <{self.root.tag}>, "
                f"expected λ({source_type}) = {expected}")
        production = instmap.source.production(source_type)
        new_hot: list[tuple[ElementNode, ElementNode]] = []

        if isinstance(production, Str):
            info = instmap.info((source_type, STR_KEY, 1))
            holder = self._walk(info)
            # An empty <A></A> is the empty string value; anything other
            # than a single text child is a malformed instance and must
            # surface as EmbeddingError, never IndexError.
            if not source_node.children:
                holder.append(TextNode(""))
            elif (len(source_node.children) == 1
                    and isinstance(source_node.children[0], TextNode)):
                source_text = source_node.children[0]
                text = TextNode(source_text.value)
                holder.append(text)
                id_map[text.node_id] = source_text.node_id
            else:
                raise EmbeddingError(
                    f"<{source_type}> has P({source_type}) = str but does "
                    "not contain a single text value")
        elif isinstance(production, (Empty,)):
            pass
        elif isinstance(production, Concat):
            seen: dict[str, int] = {}
            for child in source_node.element_children():
                seen[child.tag] = seen.get(child.tag, 0) + 1
                info = instmap.info((source_type, child.tag, seen[child.tag]))
                leaf = self._walk(info)
                self.hot_ids.add(leaf.node_id)
                id_map[leaf.node_id] = child.node_id
                new_hot.append((leaf, child))
        elif isinstance(production, Disjunction):
            chosen = source_node.element_children()
            if chosen:
                child = chosen[0]
                info = instmap.info((source_type, child.tag, 1))
                leaf = self._walk(info)
                self.hot_ids.add(leaf.node_id)
                id_map[leaf.node_id] = child.node_id
                new_hot.append((leaf, child))
        elif isinstance(production, Star):
            info = instmap.info((source_type, production.child, 1))
            for instance, child in enumerate(
                    source_node.element_children(), start=1):
                leaf = self._walk(info, carrier_instance=instance)
                self.hot_ids.add(leaf.node_id)
                id_map[leaf.node_id] = child.node_id
                new_hot.append((leaf, child))

        self._complete(self.root)
        return new_hot

    # -- completion ----------------------------------------------------------
    def _complete(self, root: ElementNode) -> None:
        """Pad required positions with mindef and sort children by slot.

        Iterative (explicit work stack): deep documents build fragments
        along arbitrarily long paths and must never hit the Python
        recursion limit.
        """
        target = self.instmap.target
        mindef = self.instmap.mindef
        hot_ids = self.hot_ids
        slots = self.slots
        stack: list[ElementNode] = [root]
        while stack:
            node = stack.pop()
            if node.node_id in hot_ids:
                continue  # will become the root of its own fragment
            slot_map = slots.get(node.node_id)
            if slot_map is None:
                continue  # mindef filler: already complete
            production = target.production(node.tag)

            if isinstance(production, Str):
                if node.child_text() is None:
                    node.append(TextNode(DEFAULT_STRING))
                continue
            if isinstance(production, Empty):
                continue

            # Sort into slot order, pad, and queue in one pass.
            ordered: list[ElementNode] = []
            if isinstance(production, Concat):
                for index, child_type in enumerate(production.children):
                    child = slot_map.get(("c", index))
                    if child is None:
                        child = mindef.instance(child_type)
                        slot_map[("c", index)] = child
                    ordered.append(child)
            elif isinstance(production, Disjunction):
                child = slot_map.get(("o",))
                if child is None:
                    choice = mindef.default_choice[node.tag]
                    if choice is not None:
                        child = mindef.instance(choice)
                if child is not None:
                    ordered.append(child)
            elif isinstance(production, Star):
                if slot_map:
                    top = max(key[1] for key in slot_map)  # type: ignore[index]
                    for position in range(1, top + 1):
                        child = slot_map.get(("s", position))
                        if child is None:
                            child = mindef.instance(production.child)
                            slot_map[("s", position)] = child
                        ordered.append(child)

            node.children = []
            for child in ordered:
                child.parent = node
            node.children.extend(ordered)
            stack.extend(ordered)


def apply_embedding(embedding: SchemaEmbedding, source_root: ElementNode,
                    validate: bool = True) -> MappingResult:
    """``σd(T1)``, served by the default compilation engine.

    The embedding is compiled (validated, pfrag templates prebuilt)
    once per content fingerprint and reused for every later document —
    see :class:`repro.engine.session.Engine` for an explicit session.
    """
    # Convenience wrapper delegating to the default engine; the
    # engine package imports this module.
    # lint: allow-lazy-import
    from repro.engine.session import default_engine

    return default_engine().apply_embedding(embedding, source_root,
                                            validate=validate)
