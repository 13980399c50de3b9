"""Shared fixtures for the evaluation benchmarks.

Every bench regenerates one artefact of the paper's evaluation section
(tables 1-4, figures 10-15) plus the ablations listed in ``DESIGN.md``.
Artefact renderings are printed and also written to
``benchmarks/results/<name>.txt`` so the run leaves an inspectable record.

Scale: the paper used 3000 faults per experiment; benches default to 12
and honour ``REPRO_FAULTS=<n>`` / ``REPRO_PAPER_SCALE=1`` through
``repro.analysis.experiments.default_fault_count``.
"""

import pathlib

import pytest

from repro.analysis import Evaluation
from repro.analysis.experiments import default_fault_count

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def evaluation():
    """One shared 8051+Bubblesort testbed for the whole bench session."""
    return Evaluation()


@pytest.fixture(scope="session")
def bench_count():
    """Faults per experiment class for bench runs (12 unless the
    environment knobs say otherwise)."""
    return default_fault_count(fallback=12)


@pytest.fixture()
def record_artefact():
    """Print an artefact rendering and persist it under results/."""

    def _record(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print()
        print(text)

    return _record
