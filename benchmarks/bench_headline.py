"""Headline numbers: PAPI's mean speedups and energy efficiency.

Paper abstract / Section 7.2: 1.8x over A100+AttAcc, 1.9x over
A100+HBM-PIM, 11.1x over AttAcc-only, 3.4x energy efficiency over
A100+AttAcc (creative-writing grid). We assert direction and rough
magnitude. ROADMAP.md item 6 tables the paper-vs-measured headline
values (a checked-in ledger is still open).
"""

from benchmarks.conftest import run_once
from repro.analysis.evaluation import fig8_end_to_end, headline_numbers
from repro.analysis.report import format_table

PAPER = {
    "speedup_vs_a100_attacc": 1.8,
    "speedup_vs_a100_hbm_pim": 1.9,
    "speedup_vs_attacc_only": 11.1,
    "energy_efficiency_vs_a100_attacc": 3.4,
}


def test_headline(benchmark, show):
    def compute():
        return headline_numbers(fig8_end_to_end())

    numbers = run_once(benchmark, compute)

    show(
        format_table(
            ["metric", "paper", "measured"],
            [[key, PAPER[key], numbers[key]] for key in PAPER],
            title="Headline results (geometric mean over the Figure 8 grid)",
        )
    )

    assert numbers["speedup_vs_a100_attacc"] > 1.3
    assert numbers["speedup_vs_a100_hbm_pim"] > 1.3
    # PAPI's edge over the PIM-only design is the largest of the three.
    assert (
        numbers["speedup_vs_attacc_only"] > numbers["speedup_vs_a100_attacc"]
    )
    assert numbers["energy_efficiency_vs_a100_attacc"] > 1.3
