"""Tree serialization: readable text and the two model-file forms.

Format 1 (``model.json``) is the nested dict form: each node's children
sit under it.  :func:`to_dict` writes it from the breadth-first table,
children before parents; :func:`from_dict` reads it breadth-first back
into columns.  Format 2 (``model.npz``) is the table itself: the schema
and the primary columns :func:`assemble_table` takes, one array each
(:func:`to_npz` / :func:`from_npz`).

A model file is outside input.  Both readers end in the same vectorised
:func:`check_columns`, which refuses everything the prediction kernel
would index with wrongly, naming the first bad node, and only then
rebuild the derived arrays through :func:`assemble_table`.
"""

from __future__ import annotations

import io
import json
import zipfile
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

__all__ = ["COLUMNS", "check_columns", "from_dict", "from_npz", "to_dict",
           "to_npz", "to_text"]

#: the primary columns of a table: what :func:`assemble_table` takes and
#: ``model.npz`` stores
COLUMNS = ("kind", "feature", "threshold", "class_counts", "n_records",
           "leaf_label", "default_child", "n_children", "fanout",
           "slot_child")

#: what reading a malformed payload raises on the way to a ValueError
_MALFORMED = (KeyError, TypeError, AttributeError, IndexError, OverflowError)

_KINDS = {"leaf": KIND_LEAF, "continuous": KIND_CONTINUOUS,
          "categorical": KIND_CATEGORICAL}


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


def _schema_dict(schema: Schema) -> dict[str, Any]:
    return {
        "n_classes": schema.n_classes,
        "attributes": [{"name": a.name, "kind": a.kind,
                        "n_values": a.n_values} for a in schema],
    }


def _read_schema(d: dict[str, Any]) -> Schema:
    return Schema(
        attributes=tuple(AttributeSpec(a["name"], a["kind"],
                                       n_values=a["n_values"])
                         for a in d["attributes"]),
        n_classes=d["n_classes"],
    )


def to_dict(tree: DecisionTree) -> dict[str, Any]:
    """JSON-safe dict form of the whole tree (format 1)."""
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
    return {"schema": _schema_dict(tree.schema), "root": out[0]}


def from_dict(payload: dict[str, Any]) -> DecisionTree:
    """Rebuild a tree written by :func:`to_dict`; ``ValueError`` if the
    payload is not one (a node indexing past its schema, its children or
    its class count would otherwise fail only at prediction)."""
    try:
        return _read_dict(payload)
    except _MALFORMED as exc:
        raise ValueError(f"malformed tree payload: {exc!r}") from exc


def _read_dict(payload: dict[str, Any]) -> DecisionTree:
    if not isinstance(payload, dict) or "schema" not in payload:
        raise ValueError("tree payload must be a dict with a schema")
    schema = _read_schema(payload["schema"])
    rows: list[tuple] = []
    counts: list = []
    slots: list = []
    order = [payload["root"]]
    for d in order:                             # breadth-first
        kind = _KINDS.get(d["type"], -1)
        children, ordinals = [], []
        feature, threshold, label, default = -1, np.nan, -1, 0
        if kind == KIND_LEAF:
            label = d["label"]
        elif kind != -1:
            feature, children = d["attr_index"], d["children"]
            if kind == KIND_CONTINUOUS:
                threshold, ordinals = d["threshold"], [0, 1]
            else:
                ordinals, default = d["value_to_child"], d["default_child"]
        rows.append((kind, feature, threshold, d["n_records"], label,
                     default, len(children), len(ordinals)))
        counts.append(d["class_counts"])
        slots.extend(ordinals)
        order.extend(children)
    c = schema.n_classes
    width = np.fromiter(map(len, counts), dtype=np.int64, count=len(counts))
    if (width != c).any():
        raise ValueError(f"node {int(np.argmax(width != c))}: class_counts "
                         f"must have {c} entries")
    names = ("kind", "feature", "threshold", "n_records", "leaf_label",
             "default_child", "n_children", "fanout")       # a row's order
    cols = {name: np.asarray(col, dtype=np.float64 if name == "threshold"
                             else np.int64)
            for name, col in zip(names, zip(*rows))}
    cols["class_counts"] = np.asarray(counts, dtype=np.int64)
    cols["slot_child"] = np.asarray(slots, dtype=np.int64)
    return _table(schema, cols)


def to_npz(tree: DecisionTree) -> bytes:
    """The table's primary columns plus its schema (format 2), as the
    bytes of an uncompressed ``np.savez`` archive."""
    t = tree.compiled()
    buf = io.BytesIO()
    np.savez(buf, schema=np.array(json.dumps(_schema_dict(tree.schema))),
             **{name: getattr(t, name) for name in COLUMNS})
    return buf.getvalue()


def from_npz(blob: bytes) -> DecisionTree:
    """Rebuild a tree written by :func:`to_npz`; ``ValueError`` if the
    bytes are not one (object arrays are refused unread)."""
    try:
        with np.load(io.BytesIO(blob), allow_pickle=False) as z:
            if sorted(z.files) != sorted(("schema", *COLUMNS)):
                raise ValueError(f"model.npz must hold the schema and the "
                                 f"columns {COLUMNS}, not {z.files}")
            cols = {name: z[name] for name in COLUMNS}
            text = z["schema"]
        if text.dtype.kind != "U" or text.ndim != 0:
            raise ValueError("model.npz's schema must be one JSON string")
        schema = _read_schema(json.loads(str(text)))
    except (*_MALFORMED, ValueError, OSError, EOFError,
            zipfile.BadZipFile) as exc:
        raise ValueError(f"malformed model.npz: {exc!r}") from exc
    return _table(schema, cols)


def _table(schema: Schema, cols: dict[str, np.ndarray]) -> DecisionTree:
    check_columns(schema, cols)
    return assemble_table(schema, **cols).to_tree()


def check_columns(schema: Schema, cols: dict[str, np.ndarray]) -> None:
    """``ValueError`` unless ``cols`` (:data:`COLUMNS` → array) is a
    breadth-first table over ``schema`` the kernel can route with — the
    one check of both model-file formats.  A bad node is named by id;
    when several are bad, the first."""
    for name in COLUMNS:
        a = cols[name]
        floating = name == "threshold"
        ndim = 2 if name == "class_counts" else 1
        if a.dtype.kind not in ("f" if floating else "iu") or a.ndim != ndim:
            raise ValueError(
                f"column {name} must be a {ndim}-d "
                f"{'float' if floating else 'integer'} array, not "
                f"{a.dtype} of shape {a.shape}")
    n, c = len(cols["kind"]), schema.n_classes
    short = [name for name in COLUMNS[:-1] if len(cols[name]) != n]
    if short:
        raise ValueError(f"columns {short} do not have one row per node "
                         f"({n})")
    if cols["class_counts"].shape[1] != c:
        raise ValueError(f"class_counts must have {c} entries per node")
    kind, feature, label, default, k, fanout, slots = (
        cols[name].astype(np.int64) for name in (
            "kind", "feature", "leaf_label", "default_child", "n_children",
            "fanout", "slot_child"))
    _refuse_first([
        (~np.isin(kind, (KIND_LEAF, KIND_CONTINUOUS, KIND_CATEGORICAL)),
         "unknown node type"),
        ((k < 0) | (fanout < 0), "negative child or slot count"),
    ])
    if k.sum() != n - 1:
        raise ValueError(f"the child counts sum to {k.sum()}, but a tree "
                         f"of {n} nodes has {n - 1} children")
    if fanout.sum() != len(slots):
        raise ValueError(f"the fanouts sum to {fanout.sum()}, but there "
                         f"are {len(slots)} slots")
    leaf, cont, cat = (kind == KIND_LEAF, kind == KIND_CONTINUOUS,
                       kind == KIND_CATEGORICAL)
    ids = np.arange(n)
    attr_ok = (feature >= 0) & (feature < len(schema))
    attr = np.where(attr_ok, feature, 0)
    is_cont = np.array([a.is_continuous for a in schema] + [False])[attr]
    n_values = np.array([a.n_values for a in schema] + [0])[attr]
    first = 1 + np.cumsum(k) - k
    owner = np.repeat(ids, fanout)
    position = np.arange(len(slots)) - (np.cumsum(fanout) - fanout)[owner]
    routable = (slots >= 0) & (slots < k[owner])
    named = np.zeros(n, dtype=bool)
    named[(first[owner] + slots)[routable]] = True

    def by_node(bad_slot: np.ndarray) -> np.ndarray:
        out = np.zeros(n, dtype=bool)
        out[owner[bad_slot]] = True
        return out

    unnamed = np.zeros(n, dtype=bool)
    unnamed[np.repeat(ids, k)[~named[1:]]] = True
    _refuse_first([
        (leaf & ((k != 0) | (fanout != 0)), "a leaf has no children and "
                                            "no slots"),
        (leaf & ((label < 0) | (label >= c)), "label out of range"),
        ((leaf & (feature != -1)) | (~leaf & (label != -1))
         | (~cont & ~np.isnan(cols["threshold"])) | (~cat & (default != 0)),
         "carries a field of another node kind"),
        (~leaf & ~(attr_ok & (is_cont == cont)),
         lambda v: f"attr_index {feature[v]} is not a "
                   f"{'continuous' if cont[v] else 'categorical'} "
                   f"attribute of the schema"),
        (cont & ((k != 2) | (fanout != 2)), "needs exactly 2 children"),
        (cat & (fanout != n_values),
         lambda v: f"value_to_child needs {n_values[v]} entries"),
        ((k > 0) & (first <= ids), "its children must follow it in "
                                   "breadth-first order"),
        (by_node((slots < -1) | (slots >= k[owner])),
         "value_to_child ordinals must lie in [-1, its child count)"),
        (by_node(cont[owner] & (slots != position)),
         "a continuous split's slots are [0, 1]"),
        (unnamed, lambda v: f"value_to_child must name each of its "
                            f"{k[v]} children, or -1"),
        (cat & ((default < 0) | (default >= k)), "default_child out of "
                                                 "range"),
    ])


def _refuse_first(checks: list[tuple[np.ndarray, Any]]) -> None:
    """Raise for the lowest node any ``(bad-node mask, message)`` flags;
    on a tie the earlier check speaks.  A message may be a function of
    the node id."""
    hits = [(int(np.argmax(bad)), i) for i, (bad, _) in enumerate(checks)
            if bad.any()]
    if hits:
        v, i = min(hits)
        message = checks[i][1]
        raise ValueError(f"node {v}: "
                         f"{message(v) if callable(message) else message}")
