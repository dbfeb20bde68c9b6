"""Benchmark suite configuration.

Each bench prints the table/figure it regenerates; this conftest tees that
output into ``benchmarks/results/<test_name>.txt`` so EXPERIMENTS.md always
has a fresh artifact to reference, and re-emits it to the terminal.
"""

import sys
from pathlib import Path

import pytest

# Allow `import harness` when pytest is invoked from the repo root, and
# `from tests import nd_reference` (T2's reference kernels) from anywhere.
sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent))

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(autouse=True)
def tee_bench_output(request, capsys):
    yield
    captured = capsys.readouterr()
    if captured.out.strip():
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{request.node.name}.txt").write_text(captured.out)
        sys.stdout.write(captured.out)
