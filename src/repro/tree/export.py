"""Tree serialization: readable text and a JSON-safe dict form.

The dict form (format 1 of ``model.json``) nests each node's children
under it.  :func:`to_dict` writes it from the breadth-first table,
children before parents; :func:`from_dict` reads it breadth-first
straight back into table columns, checking everything the prediction
kernel will index with — a model file is outside input.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..datagen.schema import AttributeSpec, Schema
from .compile import (
    KIND_CATEGORICAL,
    KIND_CONTINUOUS,
    KIND_LEAF,
    assemble_table,
)
from .model import DecisionTree

__all__ = ["to_text", "to_dict", "from_dict"]


def to_text(tree: DecisionTree, max_depth: int | None = None) -> str:
    """Indented, human-readable rendering of the tree."""
    t = tree.compiled()
    depth, first = t.depths.tolist(), t.first_child.tolist()
    lines: list[str] = []
    stack = [(0, "", "")]                       # preorder
    while stack:
        v, prefix, tag = stack.pop()
        if max_depth is not None and depth[v] > max_depth:
            continue
        n = int(t.n_records[v])
        if t.kind[v] == KIND_LEAF:
            lines.append(f"{prefix}{tag}→ class {t.leaf_label[v]} "
                         f"(n={n}, counts={t.class_counts[v].tolist()})")
            continue
        name, inner = tree.schema[t.feature[v]].name, prefix + "  "
        if t.kind[v] == KIND_CONTINUOUS:
            lines.append(f"{prefix}{tag}{name} < {t.threshold[v]:g}? "
                         f"(n={n})")
            children = [(first[v], inner, "[yes] "),
                        (first[v] + 1, inner, "[no]  ")]
        else:
            lines.append(f"{prefix}{tag}split on {name} (n={n})")
            slots = t.slot_child[t.child_base[v]:][:t.fanout[v]]
            children = [
                (first[v] + c, inner,
                 f"[{name}∈{np.nonzero(slots == c)[0].tolist()}] ")
                for c in range(int(t.n_children[v]))]
        stack.extend(reversed(children))
    return "\n".join(lines)


def to_dict(tree: DecisionTree) -> dict[str, Any]:
    """JSON-safe dict form of the whole tree."""
    t = tree.compiled()
    kind, feature = t.kind.tolist(), t.feature.tolist()
    threshold, label = t.threshold.tolist(), t.leaf_label.tolist()
    n_records, counts = t.n_records.tolist(), t.class_counts.tolist()
    depth, default = t.depths.tolist(), t.default_child.tolist()
    first, n_children = t.first_child.tolist(), t.n_children.tolist()
    base, fanout = t.child_base.tolist(), t.fanout.tolist()
    slots = t.slot_child.tolist()
    out: list[dict[str, Any]] = [{}] * t.n_nodes
    for v in range(t.n_nodes - 1, -1, -1):      # children first
        stats = {"n_records": n_records[v], "class_counts": counts[v],
                 "depth": depth[v]}
        if kind[v] == KIND_LEAF:
            out[v] = {"type": "leaf", "label": label[v], **stats}
            continue
        children = out[first[v]:first[v] + n_children[v]]
        if kind[v] == KIND_CONTINUOUS:
            out[v] = {"type": "continuous", "attr_index": feature[v],
                      "threshold": threshold[v], "children": children,
                      **stats}
            continue
        out[v] = {"type": "categorical", "attr_index": feature[v],
                  "value_to_child": slots[base[v]:base[v] + fanout[v]],
                  "default_child": default[v], "children": children,
                  **stats}
    return {
        "schema": {
            "n_classes": tree.schema.n_classes,
            "attributes": [
                {"name": a.name, "kind": a.kind, "n_values": a.n_values}
                for a in tree.schema
            ],
        },
        "root": out[0],
    }


def from_dict(payload: dict[str, Any]) -> DecisionTree:
    """Rebuild a tree written by :func:`to_dict`; ``ValueError`` if the
    payload is not one (a node indexing past its schema, its children or
    its class count would otherwise fail only at prediction)."""
    try:
        return _read(payload)
    except (KeyError, TypeError, AttributeError, IndexError) as exc:
        raise ValueError(f"malformed tree payload: {exc!r}") from exc


def _read(payload: dict[str, Any]) -> DecisionTree:
    if not isinstance(payload, dict) or "schema" not in payload:
        raise ValueError("tree payload must be a dict with a schema")
    schema = Schema(
        attributes=tuple(
            AttributeSpec(a["name"], a["kind"], n_values=a["n_values"])
            for a in payload["schema"]["attributes"]
        ),
        n_classes=payload["schema"]["n_classes"],
    )
    c = schema.n_classes
    cols: dict[str, list] = {name: [] for name in (
        "kind", "feature", "threshold", "class_counts", "n_records",
        "leaf_label", "default_child", "n_children", "fanout")}
    slots: list[int] = []
    order = [payload["root"]]
    for v, d in enumerate(order):               # breadth-first
        where = f"node {v}"
        if len(d["class_counts"]) != c:
            raise ValueError(f"{where}: class_counts must have {c} entries")
        row = dict(kind=KIND_LEAF, feature=-1, threshold=np.nan,
                   class_counts=d["class_counts"],
                   n_records=int(d["n_records"]), leaf_label=-1,
                   default_child=0, n_children=0, fanout=0)
        if d["type"] == "leaf":
            row["leaf_label"] = int(d["label"])
            if not 0 <= row["leaf_label"] < c:
                raise ValueError(f"{where}: label out of range")
        elif d["type"] in ("continuous", "categorical"):
            attr, children = int(d["attr_index"]), d["children"]
            continuous = d["type"] == "continuous"
            if not (0 <= attr < len(schema)
                    and schema[attr].is_continuous == continuous):
                raise ValueError(f"{where}: attr_index {attr} is not a "
                                 f"{d['type']} attribute of the schema")
            k = len(children)
            if continuous:
                if k != 2:
                    raise ValueError(f"{where}: needs exactly 2 children")
                row.update(kind=KIND_CONTINUOUS,
                           threshold=float(d["threshold"]))
                ordinals = [0, 1]
            else:
                ordinals = [int(x) for x in d["value_to_child"]]
                if len(ordinals) != schema[attr].n_values:
                    raise ValueError(f"{where}: value_to_child needs "
                                     f"{schema[attr].n_values} entries")
                if set(ordinals) - {-1} != set(range(k)):
                    raise ValueError(f"{where}: value_to_child must name "
                                     f"each of its {k} children, or -1")
                row.update(kind=KIND_CATEGORICAL,
                           default_child=int(d["default_child"]))
                if not 0 <= row["default_child"] < k:
                    raise ValueError(f"{where}: default_child out of range")
            row.update(feature=attr, n_children=k, fanout=len(ordinals))
            slots.extend(ordinals)
            order.extend(children)
        else:
            raise ValueError(f"{where}: unknown node type")
        for name, value in row.items():
            cols[name].append(value)
    counts = np.array(cols.pop("class_counts"), dtype=np.int64)
    return assemble_table(schema, **cols, class_counts=counts.reshape(-1, c),
                          slot_child=slots).to_tree()
