"""Reference forms of the update rules, kept for tests to compare against.

`reference_step` is the copy-based form of every rule and
`add_node_q_unsimplified` the Q recursion in the paper's original order.
Neither is part of the package.
"""

from dataclasses import replace

import numpy as np

from ifelm.linalg import FlopCounter
from ifelm.solvers import (
    AlgorithmKind,
    _append,
    _grown,
    _schur_denominator,
    _weight_border,
    compute_p,
    solve_direct,
)


def add_node_q_unsimplified(state, h_bar):
    """Reference Q recursion in its original order and form.

    Q_tilde is corrected first, then t from Q_tilde, then tau with the
    squared denominator.  Retained only to cross-check the simplified rule;
    both must produce identical states up to rounding.
    """
    cnt = FlopCounter(state.multiply_adds)
    h_bar = np.asarray(h_bar, dtype=np.float64).reshape(-1)
    c = float(h_bar @ h_bar) + state.k0sq
    p = compute_p(state, h_bar, cnt)

    qp = state.Q @ p
    delta = _schur_denominator(c, float(p @ qp), state.l + 1)
    q_tilde = state.Q + np.outer(qp, qp) / delta
    qtp = q_tilde @ p
    t = -qtp / c
    tau = float(p @ qtp) / (c * c) + 1.0 / c
    q_new = np.block([[q_tilde, t.reshape(-1, 1)], [t.reshape(1, -1), tau]])

    w = _weight_border(state, h_bar, p, tau, t / tau, cnt)
    return _grown(state, _append(state, h_bar), w, cnt, Q=q_new)


def reference_step(s, h_bar):
    """Copy-based step of every rule: the vstack/hstack/block form.

    Same arithmetic, in the same order and with the same product shapes, as
    the solver's rules, but every array of the new state is a fresh copy.
    """
    k0sq, h, y, w = s.k0sq, s.H, s.Y, s.W
    h_col = h_bar.reshape(-1, 1)
    h_new = np.vstack([h, h_bar.reshape(1, -1)])
    c = float(h_bar @ h_bar) + k0sq

    def weight_border(p, tau, t_tilde):
        w_bar = tau * ((y @ h_col).reshape(-1) - w @ p)
        return np.hstack([w + np.outer(w_bar, t_tilde), w_bar.reshape(-1, 1)])

    if s.kind is AlgorithmKind.BASELINE:
        return replace(s, H=h_new, W=solve_direct(h_new, y, k0sq))
    if s.kind is AlgorithmKind.EXISTING:
        b = s.B
        u1 = h_col.T @ b
        g1 = c * b - h_col @ u1
        p = h @ h_col
        t1 = (g1 @ p) @ u1
        delta = c - (u1 @ p)[0, 0]
        u2 = h_col.T @ b
        g2 = c * b - h_col @ u2
        b_tilde = t1 / (c * delta) + g2 / c
        b_bar = (-(b_tilde @ p).reshape(-1) + h_bar) / c
        b_new = np.hstack([b_tilde, b_bar.reshape(-1, 1)])
        return replace(s, H=h_new, W=y @ b_new, B=b_new)
    if s.kind is AlgorithmKind.ALG1:
        b = s.B
        p = h @ h_col
        u = (h_col.T @ b).reshape(-1)
        tau = 1.0 / (c - float(u @ p.reshape(-1)))
        b_bar = tau * (h_bar - (b @ p).reshape(-1))
        w_bar = (y @ b_bar.reshape(-1, 1)).reshape(-1)
        return replace(
            s, H=h_new,
            W=np.hstack([w - np.outer(w_bar, u), w_bar.reshape(-1, 1)]),
            B=np.hstack([b - np.outer(b_bar, u), b_bar.reshape(-1, 1)]),
        )
    p = (h @ h_col).reshape(-1)
    if s.kind is AlgorithmKind.ALG2:
        qp = s.Q @ p
        tau = 1.0 / (c - float(p @ qp))
        t = -tau * qp
        q_tilde = s.Q + np.outer(t, t) / tau
        q_new = np.block([[q_tilde, t.reshape(-1, 1)], [t.reshape(1, -1), tau]])
        return replace(s, H=h_new, W=weight_border(p, tau, t / tau), Q=q_new)
    v = s.L.T @ p
    dv = s.D * v
    t_tilde = -(s.L @ dv)
    tau = 1.0 / (c - float(v @ dv))
    l_new = np.zeros((s.l + 1, s.l + 1))
    l_new[: s.l, : s.l] = s.L
    l_new[: s.l, s.l] = t_tilde
    l_new[s.l, s.l] = 1.0
    return replace(s, H=h_new, W=weight_border(p, tau, t_tilde),
                   L=l_new, D=np.append(s.D, tau))
