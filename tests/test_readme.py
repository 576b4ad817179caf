"""The README's library example and its ratio table match the code."""

import re
from pathlib import Path

import numpy as np

from ifelm.experiments import DEFAULT_THRESHOLDS
from ifelm.solvers import AlgorithmKind, solve_direct, step_multiply_adds

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_matches_direct_solve():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert len(blocks) == 1
    scope: dict = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    _, bound = DEFAULT_THRESHOLDS[AlgorithmKind.ALG3]
    w = solve_direct(scope["h"], scope["y"], 0.1)
    assert scope["state"].l == scope["h"].shape[0]
    assert np.linalg.norm(scope["state"].W - w) <= bound


def test_flop_ratios_are_the_cost_model():
    # the bench example of the ratio table: K = 2000, l = 500, M = 10
    lines = README.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| rule ") and "flop ratio" in line)
    table = [[cell.strip() for cell in line.strip("|").split("|")]
             for line in lines[start:start + 5]]
    column = table[0].index("flop ratio")
    rows = {row[0].strip("`"): row[column] for row in table[2:]}
    assert list(rows) == ["alg1", "alg2", "alg3"]
    existing = step_multiply_adds("existing", 500, 2000, 10)
    for rule, cell in rows.items():
        digits = len(cell.partition(".")[2])
        assert f"{existing / step_multiply_adds(rule, 500, 2000, 10):.{digits}f}" == cell, rule
