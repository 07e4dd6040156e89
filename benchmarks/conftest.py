"""Shared helpers for the benchmark/experiment harness.

Each benchmark regenerates one experiment from DESIGN.md §4 (a lemma,
theorem, or figure of the paper), prints its paper-vs-measured table,
and archives it under ``benchmarks/results/`` for EXPERIMENTS.md.  The
``benchmark`` fixture additionally times a representative kernel of the
experiment so ``pytest benchmarks/ --benchmark-only`` doubles as a
performance regression check.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def emit(results_dir, capsys):
    """Print an experiment artefact and archive it to results/<name>.txt."""

    def _emit(name: str, text: str) -> None:
        with capsys.disabled():
            print(f"\n{text}\n")
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _emit
