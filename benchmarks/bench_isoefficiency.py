"""Isoefficiency analysis (§3's scalability framework, fitted).

§3 argues ScalParC is runtime-scalable because no overhead component
exceeds O(N) per level — i.e. the problem size needed to sustain a fixed
efficiency grows no worse than linearly in p (isoefficiency exponent ≈ 1,
up to the latency terms).  This bench measures the efficiency surface over
an (N × p) grid, extracts the isoefficiency curve and fits its power law.
"""

from __future__ import annotations

from conftest import SCALE, dataset_factory, emit

from repro import ScalParC
from repro.analysis import (
    efficiency_table,
    fit_isoefficiency,
    format_table,
    run_grid,
)

SIZES = [int(n * SCALE)
         for n in (1_000, 2_000, 4_000, 8_000, 16_000, 32_000, 64_000)]
PROCS = [2, 4, 8, 16, 32]
TARGET = 0.6


def test_isoefficiency(benchmark):
    benchmark.pedantic(
        lambda: ScalParC(8).fit(dataset_factory(SIZES[1])),
        rounds=1, iterations=1,
    )
    points = run_grid(dataset_factory, SIZES, PROCS)

    table = efficiency_table(points)
    rows = [
        [n] + [f"{table[n][p]:.2f}" for p in PROCS] for n in SIZES
    ]
    text = format_table(["N \\ p"] + [str(p) for p in PROCS], rows,
                        title="Efficiency E(N, p) (anchored at p=2)")

    fit = fit_isoefficiency(points, target_efficiency=TARGET)
    curve_rows = [[p, f"{n:,.0f}"] for p, n in fit.curve]
    text += "\n\n" + format_table(
        ["p", f"N needed for E≥{TARGET}"], curve_rows,
        title=f"Isoefficiency curve (fit: N ≈ {fit.coefficient:.1f} · "
              f"p^{fit.exponent:.2f})",
    )
    emit("isoefficiency", text)

    # ---- §3's scalability claim ------------------------------------------
    # the required problem size grows polynomially, with a modest exponent:
    # O(N) total overhead per level ⇒ near-linear isoefficiency (the a2a
    # latency term adds a p·log-ish factor, so allow up to ~2)
    assert 0.5 < fit.exponent < 2.5
    # efficiency rises with N at every fixed p
    for p in PROCS[1:]:
        effs = [table[n][p] for n in SIZES]
        assert effs[-1] >= effs[0] - 0.02
