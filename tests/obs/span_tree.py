"""The structure of a span forest, the object the golden trace tests pin.

Durations, ids and tags are dropped, so two runs with the same seed give
identical signatures.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.obs.trace import SpanRecord

TreeSignature = Tuple[str, Tuple["TreeSignature", ...]]


def span_tree_signature(
    spans: Sequence[SpanRecord],
) -> Tuple[TreeSignature, ...]:
    """Structure-only view of a span forest: nested ``(name, children)``.

    A span whose parent is absent from ``spans`` becomes a root.
    """
    children: Dict[Any, List[SpanRecord]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    present = {s.span_id for s in spans}

    def build(span: SpanRecord) -> TreeSignature:
        kids = children.get(span.span_id, [])
        return (span.name, tuple(build(k) for k in kids))

    roots = [
        s for s in spans if s.parent_id is None or s.parent_id not in present
    ]
    return tuple(build(r) for r in roots)
