"""Decision-rule extraction: flatten a tree into readable IF–THEN rules.

Each root-to-leaf path becomes one rule; conjunctions over the same
continuous attribute are merged into a single interval, and categorical
conditions into value sets.  Useful for model inspection and for the
examples' "explain the classifier" output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compile import KIND_CONTINUOUS, KIND_LEAF
from .model import DecisionTree

__all__ = ["Rule", "Condition", "extract_rules", "rules_to_text"]


@dataclass(frozen=True)
class Condition:
    """One attribute's constraint inside a rule.

    Continuous: ``lo <= value < hi`` (either bound may be infinite).
    Categorical: ``value ∈ allowed`` (a tuple of codes).
    """

    attr_index: int
    lo: float = -np.inf
    hi: float = np.inf
    allowed: tuple[int, ...] | None = None

    def matches(self, column: np.ndarray) -> np.ndarray:
        """Boolean mask of the column entries satisfying the condition."""
        if self.allowed is not None:
            return np.isin(np.asarray(column).astype(np.int64),
                           np.asarray(self.allowed, dtype=np.int64))
        col = np.asarray(column, dtype=np.float64)
        return (col >= self.lo) & (col < self.hi)

    def describe(self, name: str) -> str:
        """Readable rendering using the attribute's name."""
        if self.allowed is not None:
            return f"{name} ∈ {sorted(self.allowed)}"
        if self.lo == -np.inf:
            return f"{name} < {self.hi:g}"
        if self.hi == np.inf:
            return f"{name} >= {self.lo:g}"
        return f"{self.lo:g} <= {name} < {self.hi:g}"


@dataclass(frozen=True)
class Rule:
    """IF all conditions THEN label (with training-set support stats)."""

    conditions: tuple[Condition, ...]
    label: int
    n_records: int
    confidence: float  # majority fraction at the leaf

    def matches(self, columns: list[np.ndarray]) -> np.ndarray:
        """Boolean mask of records satisfying every condition."""
        n = len(columns[0]) if columns else 0
        out = np.ones(n, dtype=bool)
        for cond in self.conditions:
            out &= cond.matches(columns[cond.attr_index])
        return out


def _merge_continuous(conds: dict[int, Condition], attr: int,
                      lo: float, hi: float) -> None:
    prev = conds.get(attr)
    if prev is None:
        conds[attr] = Condition(attr, lo=lo, hi=hi)
    else:
        conds[attr] = Condition(attr, lo=max(prev.lo, lo),
                                hi=min(prev.hi, hi))


def _merge_categorical(conds: dict[int, Condition], attr: int,
                       allowed: tuple[int, ...]) -> None:
    prev = conds.get(attr)
    if prev is None or prev.allowed is None:
        conds[attr] = Condition(attr, allowed=tuple(sorted(allowed)))
    else:
        conds[attr] = Condition(
            attr, allowed=tuple(sorted(set(prev.allowed) & set(allowed)))
        )


def extract_rules(tree: DecisionTree) -> list[Rule]:
    """All leaf rules in left-to-right (preorder) leaf order.  A
    categorical child's rule allows every code the tree routes to it —
    codes absent at training time included, under the default child."""
    t = tree.compiled()
    first = t.first_child.tolist()
    rules: list[Rule] = []
    stack: list[tuple[int, dict[int, Condition]]] = [(0, {})]
    while stack:
        v, conds = stack.pop()
        attr = int(t.feature[v])
        if t.kind[v] == KIND_LEAF:
            counts, label = t.class_counts[v], int(t.leaf_label[v])
            rules.append(Rule(
                conditions=tuple(conds[a] for a in sorted(conds)),
                label=label,
                n_records=int(t.n_records[v]),
                confidence=float(counts[label]) / max(int(counts.sum()), 1),
            ))
            continue
        children = []
        if t.kind[v] == KIND_CONTINUOUS:
            threshold = float(t.threshold[v])
            for lo, hi in ((-np.inf, threshold), (threshold, np.inf)):
                sub = dict(conds)
                _merge_continuous(sub, attr, lo, hi)
                children.append(sub)
        else:
            routes = t.child_table[t.child_base[v]:][:t.fanout[v]]
            for c in range(int(t.n_children[v])):
                sub = dict(conds)
                _merge_categorical(sub, attr, tuple(
                    np.flatnonzero(routes == first[v] + c).tolist()))
                children.append(sub)
        stack.extend(reversed(list(enumerate(children, first[v]))))
    return rules


def rules_to_text(tree: DecisionTree, *, min_records: int = 0) -> str:
    """Readable rule list, largest-support rules first."""
    rules = [r for r in extract_rules(tree) if r.n_records >= min_records]
    rules.sort(key=lambda r: -r.n_records)
    lines = []
    for i, rule in enumerate(rules):
        conds = " AND ".join(
            c.describe(tree.schema[c.attr_index].name)
            for c in rule.conditions
        ) or "TRUE"
        lines.append(
            f"R{i}: IF {conds} THEN class {rule.label} "
            f"(n={rule.n_records}, confidence={rule.confidence:.3f})"
        )
    return "\n".join(lines)
