"""The README's library example runs as printed and gives the direct-solve weights."""

import re
from pathlib import Path

import numpy as np

from ifelm.experiments import DEFAULT_THRESHOLDS
from ifelm.solvers import AlgorithmKind, solve_direct

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
