"""Streaming document plane — bounded-memory ``σd`` over parser events.

``map_text`` builds the whole source tree before its first output byte,
so its memory is O(document).  This module drives the *same* generated
codec (:mod:`repro.engine.codegen`) piecewise, straight from SAX-style
parser events (:func:`repro.xtree.parser.iter_events` /
``iter_events_path``), and emits serialized output incrementally:

* **Star spine** — a source element of a star type streams: the
  codec's head block for its image is emitted when the first instance
  starts, each instance as it completes, and the tail block on the end
  event (a star without instances emits its static zero-instance
  block).  Star-of-star documents stream end to end; peak memory is
  bounded by the largest single instance, never the document.
* **Buffered instances** — an instance that does not stream itself is
  built with :func:`~repro.xtree.parser.build_tree`, rendered by the
  codec's per-instance body function and ``run`` loop — the very code
  ``map_tree`` runs on it — and released.
* **Ignored subtrees** — children of an Empty-typed element are
  skipped with a depth counter (the codec never looks at them), so
  even garbage subtrees below Empty types cost O(depth).

A document whose root type is not a star is built whole and rendered
by ``map_tree`` (memory O(document)).  An embedding the codec generator
refuses has no codec: its documents are mapped whole by
``InstMap.apply`` and serialized, the interpreter's one text role.

Error contract: every text-output path — codec ``map_text``,
:func:`iter_mapped`, ``ParallelRunner.map_corpus`` and ``/v1/map`` —
reports the same first error for the same document.  A document that
is not well-formed raises ``parse_xml``'s ``XMLParseError`` (message,
line, column); a well-formed one with several mapping defects raises
the ``EmbeddingError`` of the first defect in document order, the
order in which the codec's work stack visits nodes.  The streamer maps
as it reads, so after a mapping error it reads the rest of the
document first: a syntax error anywhere in it still wins, as in
``map_text``.  ``InstMap.apply`` is the one path that differs: the
interpreter visits hot nodes breadth-first, so on a document with
several defects it may report a shallower one first.
:func:`stream_map_to_path` writes through a temp file + ``os.replace``
so a mid-stream error leaves no partial output.
"""
# lint: stream-plane

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator, Optional

from repro.core.errors import EmbeddingError
from repro.core.instmap import InstMap
from repro.engine.codegen import _blk
from repro.engine.plan import _pause_gc, _resume_gc
from repro.xtree.nodes import ElementNode, sever
from repro.xtree.parser import build_tree, iter_events, iter_events_path
from repro.xtree.serialize import to_string

#: Output pieces (codec blocks and lines) joined into one chunk of
#: :func:`iter_mapped`.
CHUNK_PIECES = 256


@dataclass
class StreamStats:
    """What the streamer did with one document."""

    #: star frames that streamed (head/instances/tail emitted live)
    frames_streamed: int = 0
    #: star instances built whole and rendered (they do not stream)
    fragments_buffered: int = 0
    #: subtrees below Empty-typed elements skipped without buffering
    subtrees_skipped: int = 0
    #: the root shape could not stream: whole document buffered
    whole_document: bool = False
    #: output size in characters
    chars_out: int = 0


class _StarFrame:
    """One streaming star-typed source element currently open."""

    __slots__ = ("tag", "depth", "kids", "head", "head_cache", "tail",
                 "tail_cache", "kid_depth", "body", "endpoint")

    def __init__(self, tag: str, star: tuple, depth: int) -> None:
        self.tag = tag
        self.depth = depth
        self.kids = 0
        (self.head, self.head_cache, self.tail, self.tail_cache, rel,
         self.body, self.endpoint) = star
        self.kid_depth = depth + rel


def _skip_subtree(events) -> None:
    """Consume events through the end of the element just started."""
    depth = 1
    for event in events:
        kind = event[0]
        if kind == "start":
            depth += 1
        elif kind == "end":
            depth -= 1
            if not depth:
                return


def _whole_document(instmap: InstMap, codec, first, it) -> str:
    root = build_tree(chain((first,), it))
    for _ in it:  # surface trailing-content parse errors pre-output
        pass
    if codec is not None:
        text = codec.map_tree(root)
    else:
        tree = instmap.apply(root).tree
        text = to_string(tree)
        sever(tree)
    sever(root)
    return text


def _stream_pieces(instmap: InstMap, events: Iterable,
                   stats: StreamStats) -> Iterator[list]:
    """Yield non-empty lists of output pieces; joined by newlines, in
    order, they are the mapped document."""
    it = iter(events)
    first = next(it)  # ("start", root_tag); parse errors propagate
    codec = instmap.codec
    star = None
    if codec is not None and first[1] == instmap.source.root:
        star = codec.stars.get(first[1])
    if star is None:
        stats.whole_document = True
        yield [_whole_document(instmap, codec, first, it)]
        return

    run, stars, kinds, images = (codec.run, codec.stars, codec.kinds,
                                 codec.images)
    frames = [_StarFrame(first[1], star, 0)]
    stats.frames_streamed += 1
    out: list = []
    _pause_gc()
    try:
        for event in it:
            kind = event[0]
            if kind == "start":
                frame = frames[-1]
                if not frame.kids:
                    out.append(_blk(frame.head_cache, frame.head,
                                    frame.depth))
                frame.kids += 1
                tag = event[1]
                # A bare-instance body streams star kids and skips what
                # is below Empty kids; any other instance (one the codec
                # will reject included) is built and rendered whole.
                shape = None
                if (frame.endpoint is not None
                        and images.get(tag) == frame.endpoint):
                    shape = kinds[tag]
                if shape == "star":
                    frames.append(_StarFrame(tag, stars[tag],
                                             frame.kid_depth))
                    stats.frames_streamed += 1
                    continue
                if shape == "empty":
                    stats.subtrees_skipped += 1
                    _skip_subtree(it)
                    kid = ElementNode(tag)
                else:
                    stats.fragments_buffered += 1
                    kid = build_tree(chain((event,), it))
                items: list = []
                frame.body(items, kid, frame.kid_depth)
                items.reverse()
                run(out, items)
                sever(kid)
            elif kind == "end":
                frame = frames.pop()
                if frame.kids:
                    out.append(_blk(frame.tail_cache, frame.tail,
                                    frame.depth))
                else:  # no instances: the static zero-instance block
                    run(out, [(0, ElementNode(frame.tag), frame.depth,
                               images[frame.tag])])
                if not frames:
                    break
            # text events at a star level are ignored, as by the codec
            if len(out) >= CHUNK_PIECES:
                yield out
                out = []
        for _ in it:  # raise on trailing content after the root
            pass
    except EmbeddingError:
        # map_text parses the whole document before mapping it: a
        # syntax error anywhere in it outranks a mapping defect.
        for _ in it:
            pass
        raise
    finally:
        _resume_gc()
    if out:
        yield out


def _events_for(text: Optional[str], path) -> Iterable:
    if (text is None) == (path is None):
        raise ValueError("stream_map: pass exactly one of text= or path=")
    if text is not None:
        return iter_events(text)
    return iter_events_path(path)


def iter_mapped(instmap: InstMap, *, text: Optional[str] = None,
                path=None,
                stats: Optional[StreamStats] = None) -> Iterator[str]:
    """Yield ``σd(document)`` as serialized text chunks.

    Concatenating the chunks equals ``instmap.map_text`` of the same
    document (``to_string(instmap.apply(...).tree)``) byte for byte.
    ``stats`` (optional) is filled in as the stream progresses.
    """
    if stats is None:
        stats = StreamStats()
    joiner = ""
    for pieces in _stream_pieces(instmap, _events_for(text, path), stats):
        chunk = joiner + "\n".join(pieces)
        joiner = "\n"
        stats.chars_out += len(chunk)
        yield chunk


def stream_map(instmap: InstMap, *, text: Optional[str] = None, path=None,
               write: Callable[[str], object]) -> StreamStats:
    """Map a document and push the serialized output through ``write``.

    The ``write`` callback receives text chunks as they are produced;
    on a malformed document a chunk prefix may already have been
    written when the error raises — use :func:`stream_map_to_path` for
    all-or-nothing file output.
    """
    stats = StreamStats()
    for chunk in iter_mapped(instmap, text=text, path=path, stats=stats):
        write(chunk)
    return stats


def stream_map_to_path(instmap: InstMap, out_path, *,
                       text: Optional[str] = None,
                       path=None) -> StreamStats:
    """Stream-map into ``out_path`` atomically (temp file +
    ``os.replace``): a mid-document error leaves no partial output."""
    out_path = os.fspath(out_path)
    directory = os.path.dirname(out_path) or "."
    handle = tempfile.NamedTemporaryFile(
        "w", dir=directory, prefix=".repro-stream-", suffix=".tmp",
        delete=False)
    try:
        with handle:
            stats = stream_map(instmap, text=text, path=path,
                               write=handle.write)
            handle.write("\n")
        os.replace(handle.name, out_path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise
    return stats
