"""Generated per-schema codecs — the text executor for ``σd``.

The interpreter (:mod:`repro.engine.plan`) runs one generic loop over
flat instructions and materialises a target tree (with ``idM``); text
output needs neither.  For a fixed compiled embedding the
per-production dispatch, the static mindef padding, element forms
(``<t/>`` vs inline vs multiline) and the serializer's pad/escape work
are all decidable from the instruction stream at *generation* time.

:func:`generate_codec_source` symbolically executes each type's
``TypeProgram`` ops and emits a specialised Python module: one handler
per source type appending prerendered static text blocks and pushing
work items for hot children onto an explicit stack (no recursion — the
generated module is iterative by construction).  ``map_tree(root)``
returns the serialized target document directly; no target tree is
ever allocated.  Every text path runs this module: ``map_text``
(``Engine.map_text``, ``/v1/map``, ``repro map``, batch corpora) and
the streaming executor (:mod:`repro.engine.stream`), which drives its
``run`` loop, per-star head/tail blocks and per-instance body
functions piecewise from parser events.

Byte-identity is inherited, not re-proven: static blocks are rendered
through :func:`repro.xtree.serialize.iter_serialized` over trees built
from the very instruction streams ``MappingProgram._run`` executes (a
star without instances renders its ``empty_ops``), text escaping *is*
``escape_text``, and the one shape the static code does not cover — a
concat node whose children do not match its production — is routed
through :func:`_codec_fallback`, which builds that fragment through
the sparse-concat plane (or the reference builder, for its exact
error) and splices its bytes into the output stream.  Codecs fix
``indent=2`` (the serializer default used across Engine, CLI and
serve).

Determinism: generated source is a pure function of the embedding —
handlers are numbered after sorting source type names, dispatch dict
literals are sorted, and nothing else (timestamps, ids, set iteration)
flows in.  Repeated generations are byte-identical, which makes the
source safe to cache in the artifact store keyed by
(schema fingerprint, embedding fingerprint).
"""
# lint: codec-plane

from __future__ import annotations

from typing import Optional

from repro.core.errors import EmbeddingError  # noqa: F401  (codec runtime)
from repro.core.instmap import InstMap
from repro.engine.plan import (
    LOOP_SLOT,
    OP_CLOSE,
    OP_HOT,
    OP_LEAF,
    OP_OPEN,
    OP_TEXT,
    MappingProgram,
    _pause_gc,  # noqa: F401  (codec runtime)
    _resume_gc,  # noqa: F401  (codec runtime)
)
from repro.xtree.nodes import ElementNode, TextNode, sever
from repro.xtree.parser import parse_xml  # noqa: F401  (codec runtime)
from repro.xtree.serialize import escape_text as _esc
from repro.xtree.serialize import iter_serialized

__all__ = ["CodecError", "GeneratedCodec", "generate_codec_source",
           "compile_codec", "generate_codec"]

#: The generated module's layout.  Cached source of another layout is
#: not attached; the codec is generated afresh instead.
CODEC_FORMAT = 2


class CodecError(ValueError):
    """The embedding's shape cannot be compiled into a codec (the
    interpreter / reference path serves it instead)."""


# -- runtime support shared by every generated module -------------------------

_PADS: dict[int, str] = {}


def _pad(depth: int) -> str:
    pad = _PADS.get(depth)
    if pad is None:
        pad = "  " * depth
        _PADS[depth] = pad
    return pad


def _blk(cache: dict, lines: tuple, depth: int) -> str:
    """One static block (lines pre-padded *relative* to the fragment),
    re-padded to an absolute depth and cached per depth."""
    block = cache.get(depth)
    if block is None:
        pad = _pad(depth)
        block = "\n".join(pad + line for line in lines)
        cache[depth] = block
    return block


def _codec_fallback(instmap: InstMap, out: list, stack: list,
                    node: ElementNode, depth: int, image_tag: str) -> None:
    """Serve one concat fragment whose children do not match its
    production and splice its serialized lines (plus dispatch items for
    its hot endpoints) into the codec's output stream.  The fragment
    comes from ``InstMap.fragment_pairs``, the splice entry point the
    interpreter shares: sparse-concat shapes run through the compiled
    plane, only undeclared edges hit the reference builder."""
    image = ElementNode(image_tag)
    pairs = instmap.fragment_pairs(image, node, {})
    hot = {leaf.node_id: source for leaf, source in pairs}
    items: list = []
    walk: list = [(image, depth)]
    while walk:
        current, level = walk.pop()
        if level is None:
            items.append((1, current, 0, ""))  # prebuilt close line
            continue
        if isinstance(current, TextNode):
            items.append((1, _pad(level) + _esc(current.value), 0, ""))
            continue
        source = hot.get(current.node_id)
        if source is not None:
            items.append((0, source, level, current.tag))
            continue
        children = current.children
        if not children:
            items.append((1, f"{_pad(level)}<{current.tag}/>", 0, ""))
            continue
        only_text = True
        for child in children:
            if not isinstance(child, TextNode):
                only_text = False
                break
        if only_text:
            body = "".join(_esc(child.value) for child in children)
            items.append(
                (1, f"{_pad(level)}<{current.tag}>{body}</{current.tag}>",
                 0, ""))
            continue
        items.append((1, f"{_pad(level)}<{current.tag}>", 0, ""))
        walk.append((f"{_pad(level)}</{current.tag}>", None))
        for child in reversed(children):
            walk.append((child, level + 1))
    stack.extend(reversed(items))
    sever(image)


# -- generation-time virtual interpretation -----------------------------------

class _V:
    __slots__ = ("tag", "children")

    def __init__(self, tag: str) -> None:
        self.tag = tag
        self.children: list = []


class _VText:
    __slots__ = ("value",)

    def __init__(self, value: str) -> None:
        self.value = value


class _VHole:
    __slots__ = ("tag", "slot")

    def __init__(self, tag: str, slot: int) -> None:
        self.tag = tag
        self.slot = slot


class _VCopy:
    __slots__ = ()


def _vrun(ops, root: _V) -> None:
    """Run instruction ops against a virtual tree: hot endpoints and
    PCDATA copies become markers instead of live nodes."""
    parent = root
    stack: list = []
    for op in ops:
        code = op[0]
        if code == OP_OPEN:
            node = _V(op[1])
            parent.children.append(node)
            stack.append(parent)
            parent = node
        elif code == OP_CLOSE:
            parent = stack.pop()
        elif code == OP_LEAF:
            parent.children.append(_V(op[1]))
        elif code == OP_HOT:
            parent.children.append(_VHole(op[1], op[2]))
        elif code == OP_TEXT:
            parent.children.append(_VText(op[1]))
        else:  # OP_TEXT_COPY
            parent.children.append(_VCopy())


def _is_static(node) -> bool:
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, (_VHole, _VCopy)):
            return False
        if isinstance(current, _V):
            stack.extend(current.children)
    return True


def _materialize(node: _V) -> ElementNode:
    """A static virtual subtree as real nodes, for byte-exact line
    rendering through the real serializer."""
    root = ElementNode(node.tag)
    stack = [(node, root)]
    while stack:
        virtual, real = stack.pop()
        for child in virtual.children:
            if isinstance(child, _VText):
                real.append(TextNode(child.value))
            else:
                element = ElementNode(child.tag)
                real.append(element)
                stack.append((child, element))
    return root


def _static_lines(node: _V, rel: int) -> list[str]:
    return list(iter_serialized(_materialize(node), 2, depth=rel))


# Parts of a rendered fragment, in document order:
#   ("lit", line)            — a line pre-padded at its relative depth
#   ("hole", rel, slot, tag) — dispatch a source child here
#   ("copy", rel, tag)       — the holder element of the node's PCDATA
#
# Recursion here is bounded by the embedding's longest XR path (a
# schema artifact, tens of steps), never by document depth —
# generation walks the fragment template, not the instance.
# lint: allow-recursion
def _render(node, rel: int, parts: list) -> None:
    if isinstance(node, _VText):
        parts.append(("lit", _pad(rel) + _esc(node.value)))
        return
    if isinstance(node, _VHole):
        parts.append(("hole", rel, node.slot, node.tag))
        return
    if isinstance(node, _VCopy):
        raise CodecError("PCDATA copy outside its holder element")
    if _is_static(node):
        for line in _static_lines(node, rel):
            parts.append(("lit", line))
        return
    children = node.children
    if len(children) == 1 and isinstance(children[0], _VCopy):
        parts.append(("copy", rel, node.tag))
        return
    for child in children:
        if isinstance(child, _VCopy):
            raise CodecError(
                "PCDATA copy is not the sole child of its holder")
    # Dynamic content is always an element child (a hole, or an element
    # containing one), so the multiline form is statically correct.
    parts.append(("lit", f"{_pad(rel)}<{node.tag}>"))
    for child in children:
        _render(child, rel + 1, parts)
    parts.append(("lit", f"{_pad(rel)}</{node.tag}>"))


def _ops_parts(ops, image: str) -> list:
    root = _V(image)
    _vrun(ops, root)
    if len(root.children) == 1 and isinstance(root.children[0], _VCopy):
        # path(A, str) = text(): the image itself holds the PCDATA.
        return [("copy", 0, image)]
    parts: list = []
    _render(root, 0, parts)
    return parts


# -- code emission ------------------------------------------------------------

class _Writer:
    """Accumulates generated static blocks deterministically."""

    def __init__(self) -> None:
        self.blocks: list[tuple[str, tuple[str, ...]]] = []

    def block(self, lines: list[str]) -> str:
        """Intern one static block; returns its ``_L{i}`` name."""
        name = f"_L{len(self.blocks)}"
        self.blocks.append((name, tuple(lines)))
        return name


def _tokens(writer: _Writer, parts: list, kid_exprs: dict,
            depth_expr: str = "depth", allow_copy: bool = False) -> list:
    """Compile a parts list into ("expr", code) / ("item", code) tokens
    in document order.  Consecutive literal lines are interned as one
    static block; ``kid_exprs`` maps hole slots to source-child
    expressions; copy parts reference ``v`` and are only legal inside
    ``str`` handlers."""
    tokens: list[tuple[str, str]] = []
    lit_run: list[str] = []

    def flush() -> None:
        if lit_run:
            name = writer.block(lit_run)
            tokens.append(
                ("expr", f"_blk(_B{name[2:]}, {name}, {depth_expr})"))
            lit_run.clear()

    for part in parts:
        if part[0] == "lit":
            lit_run.append(part[1])
            continue
        flush()
        if part[0] == "hole":
            _, rel, slot, tag = part
            at = depth_expr if rel == 0 else f"{depth_expr} + {rel}"
            tokens.append(("item", f"(0, {kid_exprs[slot]}, {at}, {tag!r})"))
        else:  # copy
            if not allow_copy:
                raise CodecError("PCDATA copy outside a str program")
            _, rel, tag = part
            at = depth_expr if rel == 0 else f"{depth_expr} + {rel}"
            tokens.append(
                ("expr",
                 f'_pad({at}) + "<{tag}>" + _esc(v) + "</{tag}>"'))
    flush()
    return tokens


def _handler_code(tokens: list, indent: str) -> list[str]:
    """Handler body: the leading static run goes straight to ``out``;
    everything from the first dispatch on is pushed reversed."""
    code: list[str] = []
    position = 0
    while position < len(tokens) and tokens[position][0] == "expr":
        code.append(f"{indent}out.append({tokens[position][1]})")
        position += 1
    for kind, expr in reversed(tokens[position:]):
        if kind == "expr":
            code.append(f'{indent}stack.append((1, {expr}, 0, ""))')
        else:
            code.append(f"{indent}stack.append({expr})")
    return code


def _items_code(tokens: list, indent: str) -> list[str]:
    """Star-body tokens appended to ``items`` in document order (the
    caller pushes ``reversed(items)`` once, after the kid loop)."""
    code: list[str] = []
    for kind, expr in tokens:
        if kind == "expr":
            code.append(f'{indent}items.append((1, {expr}, 0, ""))')
        else:
            code.append(f"{indent}items.append({expr})")
    return code


def _star_layout(program) -> tuple:
    """Head lines / per-kid body parts / tail lines of a star program,
    segmented exactly as ``MappingProgram._run_star`` executes it."""
    dummy = _V(program.image)
    _vrun(program.head_ops, dummy)
    chain = [dummy]
    node = dummy
    for _ in range(program.head_depth):
        node = node.children[-1]
        chain.append(node)
    chain_index = [len(level.children) - 1 for level in chain[:-1]]
    head: list[str] = [f"<{chain[0].tag}>"]
    for level in range(len(chain) - 1):
        for pad_tree in chain[level].children[:-1]:
            head.extend(_static_lines(pad_tree, level + 1))
        head.append(f"{_pad(level + 1)}<{chain[level + 1].tag}>")
    # Replay the tail against the open chain, as _run_star does: CLOSE
    # pops a level, pads land after the chain node of that level.
    parent = chain[-1]
    open_stack = list(chain[:-1])
    for op in program.tail_ops:
        code = op[0]
        if code == OP_OPEN:
            child = _V(op[1])
            parent.children.append(child)
            open_stack.append(parent)
            parent = child
        elif code == OP_CLOSE:
            parent = open_stack.pop()
        elif code == OP_LEAF:
            parent.children.append(_V(op[1]))
        elif code == OP_TEXT:
            parent.children.append(_VText(op[1]))
        else:
            raise CodecError("dynamic op in a star tail")
    tail: list[str] = []
    for level in range(len(chain) - 2, -1, -1):
        tail.append(f"{_pad(level + 1)}</{chain[level + 1].tag}>")
        for pad_tree in chain[level].children[chain_index[level] + 1:]:
            tail.extend(_static_lines(pad_tree, level + 1))
    tail.append(f"</{chain[0].tag}>")
    # Body: one star instance's parts, relative to the kid depth.
    body_root = _V(chain[-1].tag)
    _vrun(program.body_ops, body_root)
    body_parts: list = []
    for child in body_root.children:
        _render(child, 0, body_parts)
    return head, body_parts, tail, len(chain)


_HEADER = '''\
"""Generated per-schema codec — map + serialize fused.

Generated by repro.engine.codegen; regenerate instead of editing.
Cached by (schema fingerprint, embedding fingerprint).
"""
# lint: codec-plane

from repro.engine.codegen import (
    ElementNode,
    EmbeddingError,
    TextNode,
    _blk,
    _codec_fallback,
    _esc,
    _pad,
    _pause_gc,
    _resume_gc,
    parse_xml,
)

'''


def generate_codec_source(instmap: InstMap, *,
                          source_fingerprint: str = "",
                          target_fingerprint: str = "",
                          embedding_fingerprint: str = "") -> str:
    """Emit the specialised codec module for one compiled embedding.

    Deterministic: equal embeddings produce byte-identical source.
    Raises :class:`CodecError` when the embedding runs on the
    reference path (no static shape to specialise).
    """
    mp: Optional[MappingProgram] = instmap._program
    if mp is None:
        raise CodecError(
            "embedding compiled onto the reference path; no static "
            "shape to generate a codec from")
    writer = _Writer()
    type_names = sorted(mp.programs)
    handler_names = {name: f"_h{index}"
                     for index, name in enumerate(type_names)}

    bodies: list[list[str]] = []
    #: (type, head block, tail block, instance depth, body, endpoint)
    stars: list[tuple] = []
    for source_type in type_names:
        program = mp.programs[source_type]
        code = [f"def {handler_names[source_type]}(out, stack, node, "
                "depth):"]
        kind = program.kind
        if kind == "empty":
            # Children of Empty-typed elements are ignored entirely.
            parts = _ops_parts(program.ops, program.image)
            code.extend(_handler_code(_tokens(writer, parts, {}), "    "))
        elif kind == "str":
            code.append("    ch = node.children")
            code.append("    if not ch:")
            code.append('        v = ""')
            code.append("    elif len(ch) == 1 and isinstance(ch[0], "
                        "TextNode):")
            code.append("        v = ch[0].value")
            code.append("    else:")
            code.append("        raise EmbeddingError(")
            message = (f"<{source_type}> has P({source_type}) = str but "
                       "does not contain a single text value")
            code.append(f"            {message!r})")
            parts = _ops_parts(program.ops, program.image)
            code.extend(_handler_code(
                _tokens(writer, parts, {}, allow_copy=True), "    "))
        elif kind == "concat":
            code.append("    kids = [c for c in node.children "
                        "if isinstance(c, ElementNode)]")
            checks = [f"len(kids) == {len(program.expected)}"]
            checks += [f"kids[{index}].tag == {tag!r}"
                       for index, tag in enumerate(program.expected)]
            condition = " and ".join(checks)
            if len(condition) <= 68:
                code.append(f"    if ({condition}):")
            else:
                code.append("    if (")
                for check in checks[:-1]:
                    code.append(f"            {check} and")
                code.append(f"            {checks[-1]}):")
            kid_exprs = {index: f"kids[{index}]"
                         for index in range(len(program.expected))}
            parts = _ops_parts(program.ops, program.image)
            code.extend(_handler_code(
                _tokens(writer, parts, kid_exprs), "        "))
            code.append("    else:")
            code.append("        _codec_fallback(_IM, out, stack, node, "
                        f"depth, {program.image!r})")
        elif kind == "disj":
            code.append("    kids = [c for c in node.children "
                        "if isinstance(c, ElementNode)]")
            code.append("    if not kids:")
            empty_parts = _ops_parts(program.empty_ops, program.image)
            empty_code = _handler_code(
                _tokens(writer, empty_parts, {}), "        ")
            code.extend(empty_code if empty_code else ["        pass"])
            code.append("        return")
            code.append("    k = kids[0]")
            code.append("    t = k.tag")
            keyword = "if"
            for alt_tag, alt_ops in program.alts.items():
                code.append(f"    {keyword} t == {alt_tag!r}:")
                parts = _ops_parts(alt_ops, program.image)
                code.extend(_handler_code(
                    _tokens(writer, parts, {0: "k"}), "        "))
                keyword = "elif"
            code.append("    else:")
            code.append("        raise EmbeddingError(")
            code.append(f'            "instance edge ({source_type}, " + t '
                        '+ ", occ 1) is not covered"')
            code.append('            " by the embedding (document does not '
                        'conform to the source"')
            code.append('            " schema)")')
        else:  # star
            head, body_parts, tail, kid_rel = _star_layout(program)
            body_name = "_b" + handler_names[source_type][2:]
            code.append("    kids = [c for c in node.children "
                        "if isinstance(c, ElementNode)]")
            code.append("    if not kids:")
            # No instances: pure mindef completion of the image (the
            # interpreter's precompiled empty_ops), rendered statically.
            empty_parts = _ops_parts(program.empty_ops, program.image)
            code.extend(_handler_code(
                _tokens(writer, empty_parts, {}), "        "))
            code.append("        return")
            head_name = writer.block(head)
            tail_name = writer.block(tail)
            code.append(f"    out.append(_blk(_B{head_name[2:]}, "
                        f"{head_name}, depth))")
            code.append(f"    d = depth + {kid_rel}")
            code.append(f"    stack.append((1, _blk(_B{tail_name[2:]}, "
                        f'{tail_name}, depth), 0, ""))')
            code.append("    items = []")
            code.append("    for k in kids:")
            code.append(f"        {body_name}(items, k, d)")
            code.append("    stack.extend(reversed(items))")
            # The per-instance body follows its handler: the streaming
            # executor calls it too, once per buffered instance.
            bodies.append(code)
            code = [f"def {body_name}(items, k, d):"]
            code.extend(_items_code(
                _tokens(writer, body_parts, {LOOP_SLOT: "k"}, "d"), "    "))
            direct = (len(body_parts) == 1 and body_parts[0][0] == "hole"
                      and body_parts[0][2] == LOOP_SLOT)
            stars.append((source_type, head_name, tail_name, kid_rel,
                          body_name, body_parts[0][3] if direct else None))
        bodies.append(code)

    out: list[str] = [_HEADER]
    out.append(f"CODEC_FORMAT = {CODEC_FORMAT}")
    out.append(f"SOURCE_FINGERPRINT = {source_fingerprint!r}")
    out.append(f"TARGET_FINGERPRINT = {target_fingerprint!r}")
    out.append(f"EMBEDDING_FINGERPRINT = {embedding_fingerprint!r}")
    out.append(f"SOURCE_ROOT = {mp.source.root!r}")
    out.append(f"ROOT_IMAGE = {mp.root_image!r}")
    out.append("")
    out.append("_IM = None")
    out.append("")
    out.append("")
    out.append("def bind(instmap):")
    out.append('    """Late-bind the owning InstMap (reference fallback '
               'fragments)."""')
    out.append("    global _IM")
    out.append("    _IM = instmap")
    out.append("")
    for name, lines in writer.blocks:
        out.append("")
        if len(lines) == 1:
            out.append(f"{name} = ({lines[0]!r},)")
        else:
            out.append(f"{name} = (")
            for line in lines:
                out.append(f"    {line!r},")
            out.append(")")
        out.append(f"_B{name[2:]}" + " = {}")
    for code in bodies:
        out.append("")
        out.append("")
        out.extend(code)
    out.append("")
    out.append("")
    out.append("_H = {")
    for source_type in type_names:
        out.append(f"    {source_type!r}: {handler_names[source_type]},")
    out.append("}")
    for name, attribute in (("IMAGES", "image"), ("KINDS", "kind")):
        out.append(f"{name} = {{")
        for source_type in type_names:
            value = getattr(mp.programs[source_type], attribute)
            out.append(f"    {source_type!r}: {value!r},")
        out.append("}")
    out.append("# star type -> (head, head cache, tail, tail cache, instance")
    out.append("# depth offset, body, endpoint of a bare-instance body or None)")
    out.append("STARS = {")
    for source_type, head, tail, rel, body, endpoint in stars:
        out.append(f"    {source_type!r}: ({head}, _B{head[2:]}, {tail}, "
                   f"_B{tail[2:]}, {rel}, {body}, {endpoint!r}),")
    out.append("}")
    out.append("")
    out.append("")
    out.append("def run(out, stack):")
    out.append('    """Drain the work stack into out: (1, text, 0, "") items '
               "are output")
    out.append("    pieces, (0, node, depth, image) items map a source node "
               "whose")
    out.append('    image is expected at depth."""')
    out.append("    pop = stack.pop")
    out.append("    get = _H.get")
    out.append("    while stack:")
    out.append("        kind, payload, depth, expected = pop()")
    out.append("        if kind:")
    out.append("            out.append(payload)")
    out.append("            continue")
    out.append("        handler = get(payload.tag)")
    out.append("        if handler is None:")
    out.append("            raise EmbeddingError(")
    out.append('                "instance element <" + payload.tag +')
    out.append('                "> is not a source type of the '
               'embedding (document"')
    out.append('                " does not conform to the source '
               'schema)")')
    out.append("        image = IMAGES[payload.tag]")
    out.append("        if image != expected:")
    out.append("            raise EmbeddingError(")
    out.append('                "image of <" + payload.tag + "> has '
               'tag <" + expected +')
    out.append('                ">, expected \\u03bb(" + payload.tag '
               '+ ") = " + image)')
    out.append("        handler(out, stack, payload, depth)")
    out.append("")
    out.append("")
    out.append("def map_tree(root):")
    out.append('    """Serialized \\u03c3d(root) — byte-identical to '
               'to_string(InstMap.apply(root).tree)."""')
    out.append("    if root.tag != SOURCE_ROOT:")
    out.append("        raise EmbeddingError(")
    out.append('            "instance root <" + root.tag + "> is not the '
               'source root <" + SOURCE_ROOT + ">")')
    out.append("    out = []")
    out.append("    _pause_gc()")
    out.append("    try:")
    out.append("        run(out, [(0, root, 0, ROOT_IMAGE)])")
    out.append("    finally:")
    out.append("        _resume_gc()")
    out.append('    return "\\n".join(out)')
    out.append("")
    out.append("")
    out.append("def map_text(text):")
    out.append('    """Parse, map and serialize in one fused pass."""')
    out.append("    return map_tree(parse_xml(text))")
    out.append("")
    return "\n".join(out)


class GeneratedCodec:
    """A compiled codec module bound to its InstMap.

    ``map_tree``/``map_text`` render whole documents.  The streaming
    executor drives the same module piecewise: ``run(out, stack)``
    drains ``(0, node, depth, image)`` dispatch items and
    ``(1, text, 0, "")`` output items into ``out``; ``stars`` maps each
    star type to ``(head, head cache, tail, tail cache, instance depth
    offset, body, endpoint)``, where ``body(items, k, depth)`` appends
    the work items of instance ``k`` and ``endpoint`` is the instance's
    image tag when the body is the bare instance (else ``None``);
    ``kinds`` and ``images`` give each source type's program kind and
    image tag.
    """

    __slots__ = ("source", "source_fingerprint", "target_fingerprint",
                 "embedding_fingerprint", "map_tree", "map_text", "run",
                 "stars", "kinds", "images")

    def __init__(self, source: str, namespace: dict) -> None:
        if namespace.get("CODEC_FORMAT") != CODEC_FORMAT:
            raise CodecError("codec source of another layout; "
                             "regenerate it")
        self.source = source
        self.source_fingerprint = namespace["SOURCE_FINGERPRINT"]
        self.target_fingerprint = namespace["TARGET_FINGERPRINT"]
        self.embedding_fingerprint = namespace["EMBEDDING_FINGERPRINT"]
        self.map_tree = namespace["map_tree"]
        self.map_text = namespace["map_text"]
        self.run = namespace["run"]
        self.stars = namespace["STARS"]
        self.kinds = namespace["KINDS"]
        self.images = namespace["IMAGES"]


def compile_codec(source: str, instmap: InstMap) -> GeneratedCodec:
    """Compile codec source and bind it to ``instmap``."""
    fingerprint = ""
    for line in source.splitlines():
        if line.startswith("EMBEDDING_FINGERPRINT"):
            fingerprint = line.split("=", 1)[1].strip().strip("'\"")
            break
    namespace: dict = {}
    code = compile(source, f"<repro-codec {fingerprint[:12]}>", "exec")
    exec(code, namespace)
    namespace["bind"](instmap)
    return GeneratedCodec(source, namespace)


def generate_codec(instmap: InstMap, *, source_fingerprint: str = "",
                   target_fingerprint: str = "",
                   embedding_fingerprint: str = "") -> GeneratedCodec:
    """Generate, compile and bind in one step."""
    source = generate_codec_source(
        instmap, source_fingerprint=source_fingerprint,
        target_fingerprint=target_fingerprint,
        embedding_fingerprint=embedding_fingerprint)
    return compile_codec(source, instmap)
