"""The inverse mapping ``σd⁻¹`` (Theorems 3.3 and 4.3).

Given ``σd(T1)`` produced by InstMap, the source document ``T1`` is
reconstructed *without* access to ``idM``: the embedding's paths are
deterministic on genuine images (AND paths pin every star step; OR
paths diverge on OR edges, refinement R1), so the inverse simply walks
``path(A, B)`` below each image node:

* concatenation: each occurrence edge's path leads to the image of the
  corresponding child;
* disjunction: exactly one alternative's path exists (the others are
  absent because the OR divergence node holds the chosen alternative);
* star: the multiplicity carrier's children enumerate the source
  children in order; the path suffix leads to each image;
* str: the text path's endpoint carries the original PCDATA.

The reconstruction runs in ``O(|σd(T)| · |σ|)`` — within the quadratic
bound of Theorem 4.3(a).  A second, query-driven implementation that
follows the proof of Theorem 3.3 literally lives in
:mod:`repro.core.inverse_queries`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.embedding import STR_KEY, SchemaEmbedding
from repro.core.errors import InverseError
from repro.dtd.model import Concat, Disjunction, Empty, Star, Str
from repro.xpath.paths import PathStep
from repro.xtree.nodes import ElementNode, TextNode


def _walk(node: ElementNode, steps: tuple[PathStep, ...],
          ) -> Optional[ElementNode]:
    """Deterministic path walk: ``step.pos``-th same-labelled child
    (default first).  Returns ``None`` when the path is absent."""
    current = node
    for step in steps:
        matches = current.children_tagged(step.label)
        index = (step.pos if step.pos is not None else 1) - 1
        if index >= len(matches):
            return None
        current = matches[index]
    return current


class _Inverter:
    def __init__(self, embedding: SchemaEmbedding, strict: bool) -> None:
        self.embedding = embedding
        self.source = embedding.source
        self.strict = strict

    def rebuild(self, image: ElementNode, source_type: str) -> ElementNode:
        """Iterative preorder rebuild (explicit stack): children attach
        to their parent in production order when visited, so deep
        documents never recurse."""
        root = ElementNode(source_type)
        stack: list[tuple[ElementNode, str, ElementNode]] = [
            (image, source_type, root)]
        while stack:
            image, source_type, node = stack.pop()
            pending = self._rebuild_one(image, source_type, node)
            if pending:
                stack.extend(reversed(pending))
        return root

    def _rebuild_one(self, image: ElementNode, source_type: str,
                     node: ElementNode,
                     ) -> list[tuple[ElementNode, str, ElementNode]]:
        """Rebuild one node; append (created, not yet filled) children
        and return their work items."""
        production = self.source.production(source_type)
        pending: list[tuple[ElementNode, str, ElementNode]] = []

        if isinstance(production, Str):
            info = self.embedding.info((source_type, STR_KEY, 1))
            holder = _walk(image, info.path.steps)
            if holder is None:
                raise InverseError(
                    f"text path {info.path} missing below <{image.tag}> "
                    f"(image of {source_type})")
            # An endpoint with no (or an empty) text node is the empty
            # string, whose canonical tree form is an empty element: XML
            # cannot represent an explicit empty text run, so
            # "<a></a>" must survive σd / σd⁻¹ (and a serialise +
            # re-parse of the mapped document) unchanged.  Element
            # content at the endpoint is still a malformed image.
            value = holder.child_text()
            if value is None and holder.children:
                raise InverseError(
                    f"text path {info.path} endpoint <{holder.tag}> holds "
                    f"element content (image of {source_type})")
            if value:
                node.append(TextNode(value))
        elif isinstance(production, Empty):
            pass
        elif isinstance(production, Concat):
            seen: dict[str, int] = {}
            for child_type in production.children:
                seen[child_type] = seen.get(child_type, 0) + 1
                info = self.embedding.info(
                    (source_type, child_type, seen[child_type]))
                target = _walk(image, info.path.steps)
                if target is None:
                    raise InverseError(
                        f"AND path {info.path} missing below <{image.tag}> "
                        f"(image of {source_type})")
                child = ElementNode(child_type)
                node.append(child)
                pending.append((target, child_type, child))
        elif isinstance(production, Disjunction):
            matches: list[tuple[str, ElementNode]] = []
            for child_type in production.children:
                info = self.embedding.info((source_type, child_type, 1))
                target = _walk(image, info.path.steps)
                if target is not None:
                    matches.append((child_type, target))
                    if not self.strict:
                        break
            if len(matches) > 1:
                raise InverseError(
                    f"ambiguous disjunction at image of {source_type}: "
                    f"{[m[0] for m in matches]} all present")
            if not matches:
                if not production.optional:
                    raise InverseError(
                        f"no alternative of {source_type} present below "
                        f"<{image.tag}>")
            else:
                child_type, target = matches[0]
                child = ElementNode(child_type)
                node.append(child)
                pending.append((target, child_type, child))
        elif isinstance(production, Star):
            info = self.embedding.info((source_type, production.child, 1))
            carrier = info.carrier_index
            parent = _walk(image, info.path.steps[:carrier])
            if parent is None:
                raise InverseError(
                    f"STAR path prefix {info.path.prefix(carrier)} missing "
                    f"below <{image.tag}> (image of {source_type})")
            label = info.path.steps[carrier].label
            suffix = info.path.steps[carrier + 1:]
            for instance in parent.children_tagged(label):
                target = _walk(instance, suffix)
                if target is None:
                    raise InverseError(
                        f"STAR path suffix missing under <{label}> instance "
                        f"(image of {source_type})")
                child = ElementNode(production.child)
                node.append(child)
                pending.append((target, production.child, child))
        return pending


def run_invert(embedding: SchemaEmbedding, target_root: ElementNode,
               strict: bool = True) -> ElementNode:
    """The inverse walk: the one ``σd⁻¹`` executor, behind
    ``CompiledEmbedding.invert`` (``Engine.invert``, ``/v1/invert``,
    ``repro invert``, :func:`invert`), and its own oracle."""
    if target_root.tag != embedding.target.root:
        raise InverseError(
            f"document root <{target_root.tag}> is not the target root "
            f"<{embedding.target.root}>")
    return _Inverter(embedding, strict).rebuild(target_root,
                                                embedding.source.root)


def invert(embedding: SchemaEmbedding, target_root: ElementNode,
           strict: bool = True) -> ElementNode:
    """Reconstruct ``T1`` from ``σd(T1)``, served by the default
    compilation engine (path classifications are compiled once per
    embedding fingerprint and shared with mapping/translation).

    ``strict=True`` additionally verifies disjunction unambiguity
    (useful for fault injection tests); valid embeddings can never
    trigger it (Theorem 4.1 + R1).

    >>> # σd⁻¹(σd(T)) = T  — exercised throughout the test suite.
    """
    # Convenience wrapper delegating to the default engine; the
    # engine package imports this module.
    # lint: allow-lazy-import
    from repro.engine.session import default_engine

    return default_engine().invert(embedding, target_root, strict=strict)
