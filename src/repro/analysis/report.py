"""Benchmark-results report generation.

The benchmark harness writes each figure/table reproduction to
``benchmarks/results/<name>.txt`` (see ``benchmarks/conftest.py``).  This
module folds those artifacts into one markdown report — the mechanical
half of EXPERIMENTS.md — and provides side-by-side comparison tables of
:class:`~repro.perfmodel.report.SimulatedRunStats` for ad-hoc studies.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from ..perfmodel import SimulatedRunStats, format_bytes, format_seconds
from .tables import format_table

__all__ = ["collect_results", "results_to_markdown", "compare_stats"]

#: canonical experiment ordering and titles for the generated report
_SECTIONS = [
    ("fig3a_runtime", "Figure 3(a) — runtime scalability"),
    ("fig3b_memory", "Figure 3(b) — memory scalability"),
    ("comm_model", "Machine benchmark (linear communication model)"),
    ("sprint_comparison", "ScalParC vs parallel SPRINT (§3.2)"),
    ("blocked_updates", "Blocked node-table updates (§3.3.2)"),
    ("phase_breakdown", "Per-phase runtime breakdown"),
    ("isoefficiency", "Isoefficiency analysis (§3)"),
]


def collect_results(results_dir: str | Path) -> dict[str, str]:
    """Read every ``<name>.txt`` artifact from a results directory."""
    results_dir = Path(results_dir)
    out: dict[str, str] = {}
    if not results_dir.is_dir():
        return out
    for path in sorted(results_dir.glob("*.txt")):
        out[path.stem] = path.read_text().rstrip()
    return out


def results_to_markdown(results_dir: str | Path,
                        title: str = "Benchmark results") -> str:
    """Render all collected artifacts as one markdown document.

    Known experiments appear in canonical order with their titles;
    unknown artifacts are appended alphabetically.
    """
    artifacts = collect_results(results_dir)
    lines = [f"# {title}", ""]
    seen = set()
    for name, section_title in _SECTIONS:
        if name in artifacts:
            lines += [f"## {section_title}", "", "```",
                      artifacts[name], "```", ""]
            seen.add(name)
    for name in sorted(set(artifacts) - seen):
        lines += [f"## {name}", "", "```", artifacts[name], "```", ""]
    if len(lines) == 2:
        lines.append("*(no benchmark artifacts found — run "
                     "`pytest benchmarks/ --benchmark-only` first)*")
    return "\n".join(lines)


def compare_stats(
    named_stats: Sequence[tuple[str, SimulatedRunStats]],
    *,
    title: str | None = None,
) -> str:
    """Side-by-side table of priced runs (time / traffic / memory)."""
    if not named_stats:
        raise ValueError("nothing to compare")
    rows = []
    for name, stats in named_stats:
        rows.append([
            name,
            stats.size,
            format_seconds(stats.parallel_time),
            format_seconds(stats.comp_time_max),
            format_seconds(stats.comm_time_max),
            format_bytes(stats.bytes_per_rank_max),
            format_bytes(stats.memory_per_rank_max),
        ])
    return format_table(
        ["run", "p", "T_p", "comp max", "comm max",
         "comm/rank", "mem/rank"],
        rows,
        title=title,
    )
