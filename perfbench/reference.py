"""A fixed computation that gauges how fast the machine runs the workloads' kind of work.

On a shared VM the CPU time of the same pass drifts by 10% to 30% over
minutes, as other tenants load the host's cores and caches.  The runner
times this reference between the passes of every workload, and the time
metrics are scaled by `NOMINAL_S` over the reference's lower-quartile
time in the run: a drift that slows the workload and the reference alike
cancels out.

The reference grows a ridge fit over 500 samples to 500 nodes, as
grow_run does.  Every 30 nodes it copies the l x K state to append rows,
forms the cross term along K, solves the ridge system directly and
computes the outputs: the mix of copies, products, Cholesky solves and
interpreter overhead of a grow_run pass, at about a hundredth of the
cost.  It does not use the ifelm package, so no change to the package
moves it.  A change to numpy, scipy or the BLAS does.

Measured on a 2-vCPU Xeon VM over ten benchmark runs of each workload,
as IQR over median, the scaled run_s and step_ms spread 9% to 18% on
grow-oracle (15% to 29% unscaled), 8% to 12% on grow-chain (12% to 16%)
and 5% to 8% on cv-small (9% to 18%).  README.md has the table.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

# about the lower-quartile time on the 2-vCPU Xeon VM the benchmark was
# tuned on, so that scaled times read about as times on that VM
NOMINAL_S = 0.06

K0SQ = 0.1


class GrowWithCopies:
    def __init__(self, nodes: int = 500, samples: int = 500, outputs: int = 3, block: int = 30):
        rng = np.random.default_rng(1)
        self.h = rng.standard_normal((nodes, samples))
        self.y = rng.standard_normal((outputs, samples))
        self.block = block

    def run(self) -> float:
        """One sample; returns a value so that no work can be skipped."""
        h, b = self.h, self.block
        state = h[:0].copy()
        total = 0.0
        for l in range(b, h.shape[0] + 1, b):
            state = np.vstack([state, h[l - b:l]])
            p = state @ h[l % h.shape[0]]
            gram = state @ state.T + K0SQ * np.eye(l)
            w = scipy.linalg.cho_solve(scipy.linalg.cho_factor(gram, lower=True),
                                       state @ self.y.T).T
            total += float((w @ state)[0, 0] + p[0])
        return total
