"""The paper ledger: every table and figure of GCC's evaluation at default
scale, beside the paper's numbers and claims (``repro.eval.ledger``).

Writes ``benchmarks/results/paper_figures.json`` (the whole ledger, diffed
exactly against the committed ``BENCH_paper_figures.json`` by
``benchmarks/perf_trajectory.py diff``) and ``paper_figures.txt`` (its
numbers and claims tables).  Fails when a guarded claim breaks, naming it,
or when EXPERIMENTS.md no longer quotes the tables verbatim.  An unguarded
claim that reads false is a ledger row, not a failure.
"""

from __future__ import annotations

from pathlib import Path

from conftest import run_once

from repro.eval.ledger import ledger, render

EXPERIMENTS_MD = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"


def test_paper_figures(benchmark, save_report, save_json):
    book = run_once(benchmark, ledger)
    text = render(book)
    save_json("paper_figures", book)
    save_report("paper_figures", text)

    broken = [f"{c['figure']}: {c['text']}" for c in book["claims"] if c["guarded"] and not c["holds"]]
    assert not broken, f"guarded paper claims broke: {broken}"
    assert text in EXPERIMENTS_MD.read_text(), (
        "EXPERIMENTS.md does not quote the ledger verbatim; "
        "paste benchmarks/results/paper_figures.txt into its fenced block"
    )
