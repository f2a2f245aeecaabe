"""Deterministic DOT export; windowed skew products are laid out on a
layer grid mirroring the usual strip pictures."""

from __future__ import annotations

from .action import VERTEX
from .labeled import LabeledGraph
from .skew import SkewLabeledGraph


def _quote(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'


def export_dot(lg: LabeledGraph, skew: SkewLabeledGraph | None = None) -> str:
    lines = ["digraph labeled_graph {"]
    if skew is not None:
        lines.append("  rankdir=LR;")
        by_layer: dict = {}
        for vid, (_, layer) in zip(skew.item_names[0],
                                   skew.coordinates(VERTEX)):
            by_layer.setdefault(layer, []).append(vid)
        for layer in sorted(by_layer, key=lambda g: (str(type(g)), g)):
            row = "; ".join(_quote(v) for v in sorted(by_layer[layer]))
            lines.append(f"  {{ rank=same; {row}; }}")
        for vid in sorted(skew.halo_vertices):
            lines.append(f"  {_quote(vid)} [style=dashed];")
    for v in lg.vertices:
        if skew is not None and v in skew.halo_vertices:
            continue
        lines.append(f"  {_quote(v)};")
    for e in lg.graph.edges:
        attrs = [f"label={_quote(lg.labeling[e.eid])}"]
        if skew is not None and e.eid in skew.boundary_edges:
            attrs.append("style=dashed")
        lines.append(f"  {_quote(e.src)} -> {_quote(e.dst)} "
                     f"[{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
