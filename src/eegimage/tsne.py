"""Exact t-SNE (no tree approximation) for visualizing model embeddings.

Small-n only: O(n^2) affinities, binary-searched per-point bandwidths, early
exaggeration, momentum with per-coordinate gains, and an objective trace so
tests can assert the KL actually decreases.

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
        if self.perplexity <= 1.0:
            raise ValueError("perplexity must exceed 1")
        if self.iterations <= self.exaggeration_iters:
            raise ValueError("iterations must exceed the exaggeration phase")
        if self.exaggeration < 1.0:
            raise ValueError("exaggeration factor must be >= 1")
        lr = self.learning_rate
        if lr != "auto" and not (isinstance(lr, numbers.Real) and not isinstance(lr, bool)
                                 and math.isfinite(lr) and lr > 0):
            raise ValueError(
                f"learning_rate must be a positive finite number or 'auto', got {lr!r}"
            )


def _entropy_probs(dist_row: np.ndarray, beta: float):
    """Shannon entropy (nats) and conditional probabilities for one point."""
    p = np.exp(-dist_row * beta)
    s = p.sum()
    if s <= 0:
        return 0.0, np.zeros_like(p)
    p = p / s
    nz = p > 0
    h = -np.sum(p[nz] * np.log(p[nz]))
    return h, p


def conditional_affinities(x: np.ndarray, perplexity: float, tol: float = 1e-5,
                           max_iter: int = 60) -> np.ndarray:
    """Per-point bandwidths found by binary search so each row's perplexity
    matches the target."""
    n = x.shape[0]
    sq = np.sum(x * x, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0)
    target = np.log(perplexity)
    p_cond = np.zeros((n, n))
    for i in range(n):
        row = np.delete(d2[i], i)
        beta, lo, hi = 1.0, 0.0, np.inf
        for _ in range(max_iter):
            h, p = _entropy_probs(row, beta)
            if abs(h - target) < tol:
                break
            if h > target:  # too spread out -> sharpen
                lo = beta
                beta = beta * 2.0 if np.isinf(hi) else 0.5 * (lo + hi)
            else:
                hi = beta
                beta = beta / 2.0 if lo == 0.0 else 0.5 * (lo + hi)
        p_cond[i, np.arange(n) != i] = p
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

    buf, a (3, n, n) float64 array, holds the work and the two results, so a
    loop calling this every iteration allocates no n x n array.
    """
    n = y.shape[0]
    gram, num, q = np.empty((3, n, n)) if buf is None else buf
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

    out, an (n-1, n) float64 array, receives the terms; they are summed as
    one flat array, in the order of the boolean-mask gather.
    """
    p_off, q_off = _off_diagonal(p), _off_diagonal(q)
    if out is None:
        out = np.empty(p_off.shape)
    np.divide(p_off, q_off, out=out)
    np.log(out, out=out)
    out *= p_off
    return float(out.reshape(-1).sum())


@dataclass
class TsneResult:
    coords: np.ndarray  # (n, 2), zero-mean
    objective_trace: np.ndarray  # KL(P||Q) per iteration, unexaggerated P


def tsne(embeddings: np.ndarray, cfg: TsneConfig) -> TsneResult:
    """Reduce (n, d) embeddings to centered 2-D coordinates.

    Deterministic per cfg.seed. The returned trace holds the objective
    against the true (unexaggerated) affinities at every iteration.
    """
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

    if cfg.learning_rate == "auto":
        learning_rate = max(n / (4.0 * cfg.exaggeration), 50.0)
    else:
        learning_rate = cfg.learning_rate

    p_true = joint_affinities(x, cfg.perplexity)
    p_exaggerated = p_true * cfg.exaggeration
    rng = np.random.default_rng(cfg.seed)
    y = rng.normal(0.0, 1e-4, size=(n, 2))
    y -= y.mean(axis=0)
    inc = np.zeros_like(y)
    gains = np.ones_like(y)
    trace = np.empty(cfg.iterations)
    # every n x n array of the loop lives here; each step writes in place
    q_buf = np.empty((3, n, n))
    pq = np.empty((n, n))
    kl_terms = np.empty((n - 1, n))
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
        momentum = cfg.momentum_early if it < cfg.exaggeration_iters else cfg.momentum_late
        flips = np.sign(grad) != np.sign(inc)
        gains = np.where(flips, gains + 0.2, gains * 0.8)
        np.clip(gains, 0.01, None, out=gains)
        inc = momentum * inc - learning_rate * gains * grad
        y = y + inc
        y -= y.mean(axis=0)  # keep translation-centered every iteration
        # the Q of the new map serves both this trace entry and the next step
        q, num = _low_dim_q(y, q_buf)
        trace[it] = kl_objective(p_true, q, kl_terms)

    return TsneResult(coords=y, objective_trace=trace)


def tsne_to_csv(coords: np.ndarray, labels: np.ndarray, ids: list[str]) -> str:
    lines = ["id,x,y,consensus"]
    for sid, (cx, cy), lab in zip(ids, coords, labels):
        lines.append(f"{sid},{cx:.9f},{cy:.9f},{int(lab)}")
    return "\n".join(lines) + "\n"
