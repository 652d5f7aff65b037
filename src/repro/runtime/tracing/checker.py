"""The SPMD conformance checker: cross-validates per-rank collective traces.

MPI (and this repo's simulated runtime) requires every rank of a
communicator to issue the same collectives, in the same order, with
matching metadata.  The engines verify op names online; this checker
verifies the *whole recorded run* offline and much more finely, in the
spirit of MPI correctness tools that cross-check per-process traces:

========================  ====================================================
diagnostic code           meaning
========================  ====================================================
``truncated-sequence``    a rank's collective sequence ends early (missing
                          call, rank fell out of lock-step, or the rank died
                          and delivered no/partial trace)
``op-mismatch``           ranks disagree on the collective *kind* at a step
``operator-mismatch``     same collective, different reduction operator
``metadata-mismatch``     same kind and operator but different metadata
                          (e.g. a different root rank)
``dtype-mismatch``        elementwise-reduce contribution dtypes differ
``shape-mismatch``        elementwise-reduce contribution shapes differ
``result-divergence``     a replicated result (allgather(v)/allreduce)
                          hashes differently on different ranks — also
                          raised per *section* of a fused collective when
                          a replicated logical result diverges
``phase-mismatch``        ranks attribute the same step to different
                          algorithm phases
``fusion-manifest-``      ranks packed different logical collectives into
``mismatch``              the same fused rendezvous (different section
                          count, order, logical ops, dtypes or shapes) —
                          or a manifest is missing/corrupted on some rank
========================  ====================================================

Sequence-alignment failures (``truncated-sequence`` / ``op-mismatch``)
stop the walk — every later step would be skewed noise; content checks
(operator/dtype/shape/digest/phase) accumulate across the whole trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SpmdError
from .events import REDUCE_KINDS, REPLICATED_KINDS, TraceEvent, parse_op

__all__ = [
    "ConformanceReport",
    "Diagnostic",
    "TraceConformanceError",
    "check_traces",
]


class TraceConformanceError(SpmdError):
    """Raised when the conformance checker rejects a run's traces."""

    def __init__(self, report: "ConformanceReport"):
        super().__init__(report.summary())
        self.report = report


@dataclass(frozen=True)
class Diagnostic:
    """One conformance violation."""

    #: machine-readable category (see module docstring)
    code: str
    #: step index in the collective sequence (None for whole-trace issues)
    step: int | None
    #: ranks implicated
    ranks: tuple[int, ...]
    #: actionable human-readable description
    message: str

    def __str__(self) -> str:
        at = f" @step {self.step}" if self.step is not None else ""
        return f"[{self.code}]{at} ranks={list(self.ranks)}: {self.message}"


@dataclass(frozen=True)
class ConformanceReport:
    """Outcome of one conformance check."""

    #: number of ranks the job was supposed to have
    size: int
    #: per-rank recorded event counts, in rank order
    events_per_rank: tuple[int, ...]
    #: number of fully cross-validated steps
    checked_steps: int
    diagnostics: tuple[Diagnostic, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def codes(self) -> tuple[str, ...]:
        return tuple(d.code for d in self.diagnostics)

    def summary(self) -> str:
        head = (
            f"conformance: {self.size} ranks, "
            f"{self.checked_steps} steps cross-validated"
        )
        if self.ok:
            return head + " — OK (all ranks in lock-step)"
        lines = [head + f" — {len(self.diagnostics)} violation(s):"]
        lines += [f"  {d}" for d in self.diagnostics]
        return "\n".join(lines)

    def raise_if_failed(self) -> "ConformanceReport":
        """Raise :class:`TraceConformanceError` unless the check passed."""
        if not self.ok:
            raise TraceConformanceError(self)
        return self


def _values(events: dict[int, TraceEvent], attr: str) -> dict:
    """Group ranks by an event attribute's value: value -> [ranks]."""
    groups: dict = {}
    for rank in sorted(events):
        groups.setdefault(getattr(events[rank], attr), []).append(rank)
    return groups


def _minority(groups: dict) -> tuple:
    """Ranks holding non-majority values (the likely culprits)."""
    majority = max(groups.values(), key=len)
    out: list[int] = []
    for ranks in groups.values():
        if ranks is not majority:
            out.extend(ranks)
    return tuple(sorted(out))


def _check_fused_step(step: int,
                      present: dict[int, TraceEvent]) -> list[Diagnostic]:
    """Cross-validate one fused collective's ``fused_from`` manifests.

    First structurally — every rank must have packed the same logical
    collectives, in the same order, with the same dtypes and shapes (a
    divergent manifest means the fused buffers were not even aligned, so
    the sliced-back results are garbage everywhere).  Then, when the
    structure agrees, per-section: any section whose logical kind is
    replicated (e.g. an ``allreduce`` riding the batch) must hash to the
    same result on every rank, exactly as the unfused collective would
    have been checked.
    """
    diags: list[Diagnostic] = []
    structs: dict = {}
    for rank in sorted(present):
        manifest = present[rank].fused_from
        key = None if manifest is None else tuple(
            (e.op, e.dtype, e.shape) for e in manifest
        )
        structs.setdefault(key, []).append(rank)
    if len(structs) > 1:
        def _show(key):
            if key is None:
                return "no manifest"
            return f"{len(key)} section(s): " + ", ".join(
                f"{op} {dt}{list(sh)}" for op, dt, sh in key
            )
        detail = "; ".join(
            f"ranks {ranks} packed [{_show(key)}]"
            for key, ranks in sorted(structs.items(),
                                     key=lambda kv: str(kv[0]))
        )
        diags.append(Diagnostic(
            code="fusion-manifest-mismatch", step=step,
            ranks=_minority(structs),
            message=f"fused-collective manifests diverge: {detail}",
        ))
        return diags

    manifest = present[next(iter(present))].fused_from
    if not manifest:
        return diags
    for i, entry in enumerate(manifest):
        logical_kind, _ = parse_op(entry.op)
        if logical_kind not in REPLICATED_KINDS:
            continue
        digests: dict = {}
        for rank in sorted(present):
            digests.setdefault(
                present[rank].fused_from[i].result_digest, []
            ).append(rank)
        if len(digests) > 1:
            detail = "; ".join(
                f"ranks {ranks} got {d}"
                for d, ranks in sorted(digests.items())
            )
            diags.append(Diagnostic(
                code="result-divergence", step=step,
                ranks=_minority(digests),
                message=(
                    f"fused section {i} ({entry.op}) must replicate one "
                    f"result on every rank but digests diverge: {detail}"
                ),
            ))
    return diags


def check_traces(
    traces: dict[int, list[TraceEvent]],
    size: int | None = None,
) -> ConformanceReport:
    """Cross-validate per-rank collective traces.

    Parameters
    ----------
    traces:
        rank -> recorded events.  Ranks missing from the mapping (e.g. a
        worker process that died without delivering its trace) are
        treated as having recorded zero events.
    size:
        Expected rank count; defaults to the largest rank seen + 1.
    """
    if size is None:
        size = (max(traces) + 1) if traces else 0
    if size <= 0:
        raise ValueError("cannot check a trace with no ranks")
    per_rank = {r: list(traces.get(r, [])) for r in range(size)}
    lengths = tuple(len(per_rank[r]) for r in range(size))
    max_len = max(lengths) if lengths else 0
    diags: list[Diagnostic] = []
    checked = 0

    for step in range(max_len):
        present = {r: evs[step] for r, evs in per_rank.items()
                   if step < len(evs)}
        absent = tuple(sorted(set(range(size)) - set(present)))
        if absent:
            sample = next(iter(present.values()))
            detail = ", ".join(
                f"rank {r} stopped after {lengths[r]} event(s)"
                + (" (no trace delivered — did the rank die?)"
                   if lengths[r] == 0 else "")
                for r in absent
            )
            diags.append(Diagnostic(
                code="truncated-sequence", step=step, ranks=absent,
                message=(
                    f"{detail}; {len(present)} peer(s) continued with "
                    f"{sample.op!r}"
                ),
            ))
            break

        kinds = _values(present, "kind")
        if len(kinds) > 1:
            detail = "; ".join(
                f"ranks {ranks} called {kind!r}"
                for kind, ranks in sorted(kinds.items())
            )
            diags.append(Diagnostic(
                code="op-mismatch", step=step, ranks=_minority(kinds),
                message=f"collective kinds diverge: {detail}",
            ))
            break

        kind = next(iter(kinds))
        ops = _values(present, "operator")
        if len(ops) > 1:
            detail = "; ".join(
                f"ranks {ranks} used op={name!r}"
                for name, ranks in sorted(ops.items(),
                                          key=lambda kv: str(kv[0]))
            )
            diags.append(Diagnostic(
                code="operator-mismatch", step=step, ranks=_minority(ops),
                message=f"{kind}: reduction operators diverge: {detail}",
            ))
        else:
            metas = _values(present, "op")
            if len(metas) > 1:
                detail = "; ".join(
                    f"ranks {ranks} called {meta!r}"
                    for meta, ranks in sorted(metas.items())
                )
                diags.append(Diagnostic(
                    code="metadata-mismatch", step=step,
                    ranks=_minority(metas),
                    message=f"collective metadata diverges: {detail}",
                ))

        if kind in REDUCE_KINDS:
            dtypes = _values(present, "dtype")
            if len(dtypes) > 1:
                detail = "; ".join(
                    f"ranks {ranks} contributed dtype={d}"
                    for d, ranks in sorted(dtypes.items(),
                                           key=lambda kv: str(kv[0]))
                )
                diags.append(Diagnostic(
                    code="dtype-mismatch", step=step,
                    ranks=_minority(dtypes),
                    message=(
                        f"{kind} reduces elementwise but contribution "
                        f"dtypes diverge: {detail}"
                    ),
                ))
            shapes = _values(present, "shape")
            if len(shapes) > 1:
                detail = "; ".join(
                    f"ranks {ranks} contributed shape={s}"
                    for s, ranks in sorted(shapes.items(),
                                           key=lambda kv: str(kv[0]))
                )
                diags.append(Diagnostic(
                    code="shape-mismatch", step=step,
                    ranks=_minority(shapes),
                    message=(
                        f"{kind} reduces elementwise but contribution "
                        f"shapes diverge: {detail}"
                    ),
                ))

        if kind in REPLICATED_KINDS:
            digests = _values(present, "result_digest")
            if len(digests) > 1:
                detail = "; ".join(
                    f"ranks {ranks} got {d}"
                    for d, ranks in sorted(digests.items())
                )
                diags.append(Diagnostic(
                    code="result-divergence", step=step,
                    ranks=_minority(digests),
                    message=(
                        f"{kind} must replicate one result on every rank "
                        f"but digests diverge: {detail}"
                    ),
                ))

        if kind.startswith("fused_"):
            diags.extend(_check_fused_step(step, present))

        phases = _values(present, "phase")
        if len(phases) > 1:
            detail = "; ".join(
                f"ranks {ranks} in phase {p!r}"
                for p, ranks in sorted(phases.items(),
                                       key=lambda kv: str(kv[0]))
            )
            diags.append(Diagnostic(
                code="phase-mismatch", step=step, ranks=_minority(phases),
                message=f"phase attribution diverges: {detail}",
            ))

        checked += 1

    return ConformanceReport(
        size=size,
        events_per_rank=lengths,
        checked_steps=checked,
        diagnostics=tuple(diags),
    )
