"""The paper ledger at quick scale: its tables have the promised columns,
every experiment is in it, and every float is already at the 6 significant
digits that make ``BENCH_paper_figures.json`` exact-diffable.

Whether the guarded claims hold is checked at default scale by
``benchmarks/bench_paper_figures.py``; at quick scale only their type is."""

from __future__ import annotations

import pytest

from repro.eval import experiments
from repro.eval.ledger import FIGURES, PAPER, ledger, render
from repro.eval.runner import clear_cache


def verify_result_table(rows, key_column, other_columns, expected_keys):
    """Every row carries ``key_column`` and ``other_columns``, and the key
    column covers ``expected_keys`` exactly."""
    assert rows, "empty table"
    for row in rows:
        missing = {key_column, *other_columns} - row.keys()
        assert not missing, f"row {row} lacks {sorted(missing)}"
    assert {row[key_column] for row in rows} == set(expected_keys)


def float_leaves(value):
    if isinstance(value, dict):
        for inner in value.values():
            yield from float_leaves(inner)
    elif isinstance(value, list):
        for inner in value:
            yield from float_leaves(inner)
    elif isinstance(value, float):
        yield value


@pytest.fixture(scope="module")
def book():
    clear_cache()
    yield ledger(quick=True)
    clear_cache()


def test_every_experiment_is_in_the_ledger(book):
    names = [name for name in dir(experiments) if name.startswith(("figure", "table"))]
    assert sorted(FIGURES) == sorted(names)
    assert list(book["experiments"]) == list(FIGURES)


def test_numbers_table(book):
    verify_result_table(
        book["numbers"],
        key_column="quantity",
        other_columns=["figure", "key", "paper_low", "paper_high", "reproduced", "ratio", "inside"],
        expected_keys=[paper.quantity for paper in PAPER],
    )
    for row in book["numbers"]:
        assert row["paper_low"] <= row["paper_high"]
        assert isinstance(row["inside"], bool)


def test_claims_table(book):
    verify_result_table(
        book["claims"],
        key_column="figure",
        other_columns=["text", "holds", "guarded"],
        expected_keys=FIGURES.values(),
    )
    assert all(isinstance(row["holds"], bool) for row in book["claims"])
    guarded = [row for row in book["claims"] if row["guarded"]]
    assert {row["figure"] for row in guarded} == set(FIGURES.values())
    assert len(guarded) == 46


def test_floats_are_rounded_to_six_significant_digits(book):
    floats = list(float_leaves(book))
    assert floats
    assert all(value == float(f"{value:.6g}") for value in floats)


def test_render_quotes_every_row(book):
    text = render(book)
    assert text == "\n".join(line.rstrip() for line in text.splitlines())
    for row in book["claims"]:
        assert row["text"] in text
    assert len(text.splitlines()) == len(book["numbers"]) + len(book["claims"]) + 7
