"""Canonical form as it was before canonical nodes carried their key, kept
verbatim as an oracle.

``_node_key`` here recomputes a whole subtree's key at every call, and
``canonicalize`` copies every node. ``tests/test_canonical_oracle.py`` checks
that ``conspec.network.canonicalize`` gives the same network and key.
"""

from __future__ import annotations

from conspec.network import ConceptNetwork, Node, _resolve

_ANCHOR_NONE = ("", 0)


def _node_key(node: Node):
    ak = (node.anchor.direction, node.anchor.depth) if node.anchor else _ANCHOR_NONE
    leaf = 0 if not node.specifiers else 1
    kids = tuple(sorted(_node_key(s) for s in node.specifiers))
    if node.concept is not None:
        kind = 0 if node.concept.stemless else 1
        return (kind, leaf, node.concept.label, node.concept.sense, ak, kids)
    body = tuple(_node_key(r) for r in node.capsule.roots)
    return (2, leaf, body, ak, kids)


def _canonical_node(node: Node) -> Node:
    spec = tuple(sorted((_canonical_node(s) for s in node.specifiers), key=_node_key))
    capsule = None
    if node.is_capsule:
        capsule = ConceptNetwork(tuple(_canonical_node(r) for r in node.capsule.roots))
    return Node(concept=node.concept, capsule=capsule, anchor=node.anchor, specifiers=spec)


def canonicalize(net: ConceptNetwork) -> ConceptNetwork:
    """Order-normalize a network; idempotent.

    Also validates that every anchor annotation resolves to exactly one node,
    raising MalformedNetworkError otherwise. Any previously wired reference
    edges are dropped (canonicalize, then resolve).
    """
    _resolve(net, assign=False)
    return ConceptNetwork(tuple(_canonical_node(r) for r in net.roots))
