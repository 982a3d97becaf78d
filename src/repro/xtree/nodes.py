"""Node and tree classes for XML instances (paper Section 2.1).

The paper's data model:

* an instance ``T`` of a DTD is an ordered, node-labelled tree;
* each node is labelled with an element type (an *element*) or with
  ``str`` (a *text node* carrying a PCDATA string value);
* every node ``v`` has a distinct node id ``id(v)`` from a countably
  infinite set ``U``; ``dom(T)`` is the set of ids of ``T``;
* two trees are *equal* (``T1 = T2``) when they are isomorphic by an
  isomorphism that is the identity on string values — i.e. identical
  shape, tags and strings, with node ids ignored.

Node ids matter because query answers contain ids (Section 2.2) and the
``idM`` mapping of an instance mapping relates target ids to source ids
(Section 2.3).
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Union

_id_counter = itertools.count(1)


def fresh_id() -> int:
    """Return a new node id, unique across the process (the set ``U``)."""
    return next(_id_counter)


class Node:
    """Common base for element and text nodes."""

    __slots__ = ("node_id", "parent")

    def __init__(self, node_id: Optional[int] = None) -> None:
        self.node_id: int = fresh_id() if node_id is None else node_id
        self.parent: Optional[ElementNode] = None

    # -- structure ----------------------------------------------------
    def is_text(self) -> bool:
        raise NotImplementedError

    def root(self) -> "Node":
        """Walk parent pointers up to the root."""
        node: Node = self
        while node.parent is not None:
            node = node.parent
        return node

    def ancestors(self) -> Iterator["ElementNode"]:
        """Yield proper ancestors, nearest first."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def depth(self) -> int:
        """Number of proper ancestors."""
        return sum(1 for _ in self.ancestors())


class TextNode(Node):
    """A leaf carrying a PCDATA string value.

    Text nodes carry node ids too (Section 2.1: "a text node is also
    associated with a node id and it carries PCDATA").
    """

    __slots__ = ("value",)

    def __init__(self, value: str, node_id: Optional[int] = None) -> None:
        super().__init__(node_id)
        self.value = value

    def is_text(self) -> bool:
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TextNode({self.value!r}, id={self.node_id})"


class ElementNode(Node):
    """An element with a tag and an ordered child list."""

    __slots__ = ("tag", "children")

    def __init__(self, tag: str, children: Optional[list[Node]] = None,
                 node_id: Optional[int] = None) -> None:
        super().__init__(node_id)
        self.tag = tag
        self.children: list[Node] = []
        for child in children or []:
            self.append(child)

    def is_text(self) -> bool:
        return False

    # -- mutation -----------------------------------------------------
    def append(self, child: Node) -> Node:
        """Append ``child`` and set its parent pointer."""
        child.parent = self
        self.children.append(child)
        return child

    def insert(self, index: int, child: Node) -> Node:
        child.parent = self
        self.children.insert(index, child)
        return child

    def replace_child(self, old: Node, new: Node) -> None:
        """Replace ``old`` with ``new`` in place (same position)."""
        index = self.children.index(old)
        new.parent = self
        self.children[index] = new
        old.parent = None

    # -- navigation ---------------------------------------------------
    def element_children(self) -> list["ElementNode"]:
        return [c for c in self.children if isinstance(c, ElementNode)]

    def children_tagged(self, tag: str) -> list["ElementNode"]:
        """Element children with the given tag, in document order."""
        return [c for c in self.children
                if isinstance(c, ElementNode) and c.tag == tag]

    def child_text(self) -> Optional[str]:
        """The string value of the first text child, if any."""
        for child in self.children:
            if isinstance(child, TextNode):
                return child.value
        return None

    def iter(self) -> Iterator[Node]:
        """Pre-order traversal of the subtree rooted here (document order)."""
        stack: list[Node] = [self]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, ElementNode):
                stack.extend(reversed(node.children))

    def iter_elements(self) -> Iterator["ElementNode"]:
        for node in self.iter():
            if isinstance(node, ElementNode):
                yield node

    def find_by_id(self, node_id: int) -> Optional[Node]:
        for node in self.iter():
            if node.node_id == node_id:
                return node
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ElementNode(<{self.tag}>, id={self.node_id}, {len(self.children)} children)"


#: An XML tree is identified with its root element.
XMLTree = ElementNode


# -- constructors ------------------------------------------------------

def elem(tag: str, *children: Union[Node, str]) -> ElementNode:
    """Build an element; string arguments become text nodes.

    >>> t = elem("class", elem("cno", "CS331"), elem("title", "DB"))
    >>> [c.tag for c in t.element_children()]
    ['cno', 'title']
    """
    node = ElementNode(tag)
    for child in children:
        node.append(TextNode(child) if isinstance(child, str) else child)
    return node


def text(value: str) -> TextNode:
    """Build a text node."""
    return TextNode(value)


# -- equality and utilities -------------------------------------------

def tree_equal(t1: Node, t2: Node) -> bool:
    """The paper's tree equality ``T1 = T2`` (Section 2.1).

    Isomorphism that is the identity on string values: same labels, same
    child lists pairwise-equal, same PCDATA.  Node ids are ignored.
    Iterative, so arbitrarily deep documents compare safely.
    """
    stack: list[tuple[Node, Node]] = [(t1, t2)]
    while stack:
        n1, n2 = stack.pop()
        if isinstance(n1, TextNode):
            if not isinstance(n2, TextNode) or n1.value != n2.value:
                return False
            continue
        if not isinstance(n1, ElementNode) or not isinstance(n2, ElementNode):
            return False
        if n1.tag != n2.tag or len(n1.children) != len(n2.children):
            return False
        stack.extend(zip(n1.children, n2.children))
    return True


def tree_size(t: Node) -> int:
    """Number of nodes (elements and text nodes) in the subtree
    (iterative: deep documents must not recurse)."""
    count = 0
    stack: list[Node] = [t]
    while stack:
        node = stack.pop()
        count += 1
        if isinstance(node, ElementNode):
            stack.extend(node.children)
    return count


def document_order(root: ElementNode) -> dict[int, int]:
    """Map node id -> pre-order index, for document-order sorting."""
    return {node.node_id: index for index, node in enumerate(root.iter())}


def copy_tree(t: Node, fresh_ids: bool = True) -> Node:
    """Deep-copy a subtree; by default the copy gets fresh node ids.
    Iterative (explicit stack), so deep documents copy safely."""
    if isinstance(t, TextNode):
        return TextNode(t.value, node_id=None if fresh_ids else t.node_id)
    assert isinstance(t, ElementNode)
    root = ElementNode(t.tag, node_id=None if fresh_ids else t.node_id)
    stack: list[tuple[ElementNode, ElementNode]] = [(t, root)]
    while stack:
        source, copy = stack.pop()
        for child in source.children:
            if isinstance(child, TextNode):
                copy.append(TextNode(
                    child.value, node_id=None if fresh_ids else child.node_id))
            else:
                assert isinstance(child, ElementNode)
                twin = ElementNode(
                    child.tag, node_id=None if fresh_ids else child.node_id)
                copy.append(twin)
                stack.append((child, twin))
        # Children were appended in document order; deeper levels fill in
        # as their frames pop — order within each parent is preserved.
    return root


def dom(root: ElementNode) -> set[int]:
    """``dom(T)``: the set of node ids occurring in the tree."""
    return {node.node_id for node in root.iter()}


def sever(root: Node) -> None:
    """Break every parent/child link of a subtree, so reference counting
    frees it at once — trees are cyclic through parent pointers, and
    the mapping executors pause garbage collection while they run."""
    stack: list[Node] = [root]
    while stack:
        node = stack.pop()
        node.parent = None
        if isinstance(node, ElementNode) and node.children:
            stack.extend(node.children)
            node.children = []
