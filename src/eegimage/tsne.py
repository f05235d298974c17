"""Exact t-SNE (no tree approximation) for visualizing model embeddings.

Small-n only: O(n^2) affinities, per-point bandwidths binary-searched for all
points at once, early exaggeration, momentum with per-coordinate gains, and an
objective trace so tests can assert the KL actually decreases.

The bandwidth search and the joint affinities P run in float64. The map runs
in float32, as scikit-learn's does: P is cast once, and the map, its momentum
and gains and every n x n array of the loop are float32, which halves the
loop's memory traffic. The reported objective is summed in float64, and the
returned coordinates are a float64 copy of the map, re-centred in float64.

The trace runs on a schedule: ``tsne(x, cfg, trace_every=k)`` evaluates
KL(P || Q) at every k-th iteration and at the last one. The library default,
1, traces every iteration; the ``tsne`` command traces every KL_WINDOW-th, as
openTSNE and scikit-learn do. The schedule never changes the map.

``cfg.iterations`` is a cap: the map stops once its objective has converged,
as opt-SNE does (Belkina et al. 2019). After the exaggeration phase, every
KL_WINDOW-th iteration compares the KL with its value KL_WINDOW iterations
earlier, and the map stops when the KL fell by less than
``KL_WINDOW * MIN_KL_DECREASE`` of its value. A KL that rose does not stop
it. The rule reads only that grid, so the stop does not depend on the trace
schedule either.

The default step size scales with n: learning_rate="auto" resolves to
max(n / (4 * exaggeration), 50), the rule of Belkina et al. 2019 (Nat.
Commun. 10:5415). Larger steps at small n overshoot once the gains grow,
so the map never settles and identical inputs do not land together.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

_EPS = 1e-12
KL_WINDOW = 50  # iterations between the KL values the stop rule compares
MIN_KL_DECREASE = 2e-4  # the relative fall per iteration below which the map stops


@dataclass(frozen=True)
class TsneConfig:
    perplexity: float = 30.0
    iterations: int = 1000
    exaggeration: float = 12.0
    exaggeration_iters: int = 250
    learning_rate: float | str = "auto"  # a positive number, or "auto"
    momentum_early: float = 0.5
    momentum_late: float = 0.8
    seed: int = 0

    def __post_init__(self):
        for name, ok, rule in (
            ("perplexity", _is_real(self.perplexity) and self.perplexity > 1.0,
             "a finite number > 1"),
            ("iterations", _is_int(self.iterations) and self.iterations > 0,
             "a positive integer"),
            ("exaggeration", _is_real(self.exaggeration) and self.exaggeration >= 1.0,
             "a finite number >= 1"),
            ("exaggeration_iters", _is_int(self.exaggeration_iters)
             and self.exaggeration_iters >= 0, "an integer >= 0"),
            ("learning_rate", self.learning_rate == "auto"
             or _is_real(self.learning_rate) and self.learning_rate > 0,
             "a positive finite number or 'auto'"),
            ("momentum_early", _is_real(self.momentum_early)
             and 0.0 <= self.momentum_early < 1.0, "a number in [0, 1)"),
            ("momentum_late", _is_real(self.momentum_late)
             and 0.0 <= self.momentum_late < 1.0, "a number in [0, 1)"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")
        if self.iterations <= self.exaggeration_iters:
            raise ValueError(
                f"iterations ({self.iterations}) must exceed the exaggeration phase "
                f"(exaggeration_iters={self.exaggeration_iters})"
            )


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def _entropies(dist: np.ndarray, beta: np.ndarray):
    """Shannon entropies (nats) and conditional probabilities, one row per
    point, each with the operations of a one-row search in the same order."""
    p = np.exp(-dist * beta[:, None])
    s = p.sum(axis=1)
    empty = s <= 0
    p /= np.where(empty, 1.0, s)[:, None]  # an empty row stays all zeros
    nz = p > 0
    terms = p * np.log(np.where(nz, p, 1.0))
    h = -terms.sum(axis=1)
    # a row with zeros sums only its nonzero terms, which pairs them otherwise
    for i in np.flatnonzero(~nz.all(axis=1) & ~empty):
        h[i] = -np.sum(terms[i][nz[i]])
    h[empty] = 0.0
    return h, p


def conditional_affinities(x: np.ndarray, perplexity: float, tol: float = 1e-5,
                           max_iter: int = 60) -> np.ndarray:
    """Per-point bandwidths found by binary search so each row's perplexity
    matches the target.

    All rows are searched at once. Each row halves its own bracket by the
    rules of a one-row search and leaves the search once its entropy is
    within tol of the target, keeping the probabilities of that step.
    """
    n = x.shape[0]
    sq = np.sum(x * x, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0)
    dist = _off_diagonal(d2).reshape(n, n - 1)  # row i: d2[i] without entry i
    target = np.log(perplexity)
    beta, lo, hi = np.ones(n), np.zeros(n), np.full(n, np.inf)
    p_rows = np.empty((n, n - 1))
    rows = np.arange(n)  # the rows still searching
    for _ in range(max_iter):
        h, p_rows[rows] = _entropies(dist[rows], beta[rows])
        searching = ~(np.abs(h - target) < tol)
        rows, h = rows[searching], h[searching]
        if not rows.size:
            break
        b, low, high = beta[rows], lo[rows], hi[rows]
        sharpen = h > target  # too spread out
        low = np.where(sharpen, b, low)
        high = np.where(sharpen, high, b)
        mid = 0.5 * (low + high)
        beta[rows] = np.where(sharpen, np.where(np.isinf(high), b * 2.0, mid),
                              np.where(low == 0.0, b / 2.0, mid))
        lo[rows], hi[rows] = low, high
    p_cond = np.zeros((n, n))
    _off_diagonal(p_cond)[...] = p_rows.reshape(n - 1, n)
    return p_cond


def joint_affinities(x: np.ndarray, perplexity: float) -> np.ndarray:
    n = x.shape[0]
    pc = conditional_affinities(x, perplexity)
    p = (pc + pc.T) / (2.0 * n)
    return np.maximum(p, _EPS)


def _off_diagonal(a: np.ndarray) -> np.ndarray:
    """View of a square matrix's off-diagonal entries, shape (n-1, n), listed
    in the row-major order of ``a[~np.eye(n, dtype=bool)]``."""
    n = a.shape[0]
    return a.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n]


def _low_dim_q(y: np.ndarray, buf: np.ndarray | None = None):
    """Student-t affinities Q of the map y, floored at _EPS, and their
    unnormalised kernel (zero diagonal).

    buf, a (3, n, n) array of y's dtype, holds the work and the two results,
    so a loop calling this every iteration allocates no n x n array.
    """
    n = y.shape[0]
    gram, num, q = np.empty((3, n, n), dtype=y.dtype) if buf is None else buf
    sq = np.sum(y * y, axis=1)
    np.matmul(y, y.T, out=gram)
    gram *= 2.0
    np.add(sq[:, None], sq[None, :], out=num)
    num -= gram
    np.maximum(num, 0.0, out=num)
    num += 1.0
    np.divide(1.0, num, out=num)
    np.fill_diagonal(num, 0.0)
    np.divide(num, num.sum(), out=q)
    np.maximum(q, _EPS, out=q)
    return q, num


def kl_objective(p: np.ndarray, q: np.ndarray, out: np.ndarray | None = None) -> float:
    """KL(P || Q) over the off-diagonal entries, for Q from :func:`_low_dim_q`.

    out, an (n-1, n) array of the inputs' dtype, receives the terms; they are
    summed in float64 as one flat array, in the order of the boolean-mask
    gather.
    """
    p_off, q_off = _off_diagonal(p), _off_diagonal(q)
    if out is None:
        out = np.empty(p_off.shape, dtype=np.result_type(p, q))
    np.divide(p_off, q_off, out=out)
    np.log(out, out=out)
    out *= p_off
    return float(out.reshape(-1).sum(dtype=np.float64))


@dataclass
class TsneResult:
    coords: np.ndarray  # (n, 2) float64, zero-mean
    objective_trace: np.ndarray  # KL(P||Q) at trace_iterations, unexaggerated P
    trace_iterations: np.ndarray  # int, ascending; holds 0 and the stop iteration


def tsne(embeddings: np.ndarray, cfg: TsneConfig, trace_every: int = 1) -> TsneResult:
    """Reduce (n, d) embeddings to centered 2-D coordinates.

    Deterministic per cfg.seed. The returned trace holds the objective
    against the true (unexaggerated) affinities at every trace_every-th
    iteration and at the last one run, cfg.iterations - 1 or the iteration
    the stop rule ended the map at; the coordinates do not depend on
    trace_every.
    """
    if not (_is_int(trace_every) and trace_every > 0):
        raise ValueError(f"trace_every must be a positive integer, got {trace_every!r}")
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("embeddings must be 2-D (n, d)")
    n = x.shape[0]
    if n < 10:
        raise ValueError("need at least 10 points")
    if not np.isfinite(x).all():
        raise ValueError("embeddings contain non-finite values")
    if cfg.perplexity >= (n - 1) / 3.0:
        raise ValueError(
            f"perplexity {cfg.perplexity} infeasible for n={n}; need < (n-1)/3"
        )

    # Python floats, so a numpy scalar in cfg cannot promote the map to float64
    exaggeration = float(cfg.exaggeration)
    if cfg.learning_rate == "auto":
        learning_rate = max(n / (4.0 * exaggeration), 50.0)
    else:
        learning_rate = float(cfg.learning_rate)
    momentum_early, momentum_late = float(cfg.momentum_early), float(cfg.momentum_late)

    p_true = joint_affinities(x, cfg.perplexity).astype(np.float32)
    p_exaggerated = p_true * exaggeration
    rng = np.random.default_rng(cfg.seed)
    y = rng.normal(0.0, 1e-4, size=(n, 2)).astype(np.float32)
    y -= y.mean(axis=0)
    inc = np.zeros_like(y)
    gains = np.ones_like(y)
    last = cfg.iterations - 1
    trace, trace_iterations = [], []
    window_kl = None  # the KL at the last grid iteration the stop rule read
    # every n x n array of the loop lives here; each step writes in place
    q_buf = np.empty((3, n, n), dtype=np.float32)
    pq = np.empty((n, n), dtype=np.float32)
    kl_terms = np.empty((n - 1, n), dtype=np.float32)
    q, num = _low_dim_q(y, q_buf)

    for it in range(cfg.iterations):
        p = p_exaggerated if it < cfg.exaggeration_iters else p_true
        np.subtract(p, q, out=pq)
        pq *= num
        # diag(rowsums) - pq, built in place: pq's diagonal is +-0 (num's is 0)
        row_sums = pq.sum(axis=1)
        np.negative(pq, out=pq)
        pq.reshape(-1)[:: n + 1] = row_sums
        grad = 4.0 * (pq @ y)
        momentum = momentum_early if it < cfg.exaggeration_iters else momentum_late
        flips = np.sign(grad) != np.sign(inc)
        gains = np.where(flips, gains + 0.2, gains * 0.8)
        np.clip(gains, 0.01, None, out=gains)
        inc = momentum * inc - learning_rate * gains * grad
        y = y + inc
        y -= y.mean(axis=0)  # keep translation-centered every iteration
        # the Q of the new map serves both this trace entry and the next step
        q, num = _low_dim_q(y, q_buf)
        kl = None
        if it % KL_WINDOW == 0 and it >= cfg.exaggeration_iters:
            kl = kl_objective(p_true, q, kl_terms)
            if window_kl is not None and 0 <= window_kl - kl < KL_WINDOW * MIN_KL_DECREASE * kl:
                last = it
            window_kl = kl
        if it % trace_every == 0 or it == last:
            trace.append(kl_objective(p_true, q, kl_terms) if kl is None else kl)
            trace_iterations.append(it)
        if it == last:
            break

    coords = y.astype(np.float64)
    coords -= coords.mean(axis=0)
    return TsneResult(coords=coords, objective_trace=np.array(trace),
                      trace_iterations=np.array(trace_iterations))


def tsne_to_csv(coords: np.ndarray, labels: np.ndarray, ids: list[str]) -> str:
    lines = ["id,x,y,consensus"]
    for sid, (cx, cy), lab in zip(ids, coords, labels):
        lines.append(f"{sid},{cx:.9f},{cy:.9f},{int(lab)}")
    return "\n".join(lines) + "\n"
