"""Exact t-SNE: affinity contracts, the two-Gaussian recovery benchmark, and
objective/centering guarantees."""

import importlib
from dataclasses import replace

import numpy as np
import pytest

from eegimage.tsne import (
    TsneConfig,
    _low_dim_q,
    conditional_affinities,
    joint_affinities,
    kl_objective,
    tsne,
    tsne_to_csv,
)

# --- oracle: plain Lloyd 2-means seeded from the farthest pair ---


def two_means(pts, iters=50):
    d = ((pts[:, None] - pts[None, :]) ** 2).sum(-1)
    i, j = np.unravel_index(np.argmax(d), d.shape)
    centers = np.stack([pts[i], pts[j]])
    assign = np.zeros(len(pts), dtype=int)
    for _ in range(iters):
        assign = np.argmin(((pts[:, None] - centers[None]) ** 2).sum(-1), axis=1)
        for k in range(2):
            if np.any(assign == k):
                centers[k] = pts[assign == k].mean(0)
    return assign


def gaussian_pair(n_per=50, dim=5, sep=5.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0, 0.5, size=(n_per, dim)) + sep
    b = rng.normal(0, 0.5, size=(n_per, dim)) - sep
    x = np.vstack([a, b])
    labels = np.array([0] * n_per + [1] * n_per)
    return x, labels


BENCH_CFG = TsneConfig(perplexity=30.0, iterations=500, exaggeration_iters=250, seed=0)


# --- config and input validation ---


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        TsneConfig(perplexity=1.0)
    with pytest.raises(ValueError):
        TsneConfig(iterations=100, exaggeration_iters=250)
    with pytest.raises(ValueError):
        TsneConfig(exaggeration=0.5)
    for bad in (0, -1.0, "fast"):
        with pytest.raises(ValueError, match="learning_rate"):
            TsneConfig(learning_rate=bad)


@pytest.mark.parametrize("field,value", [
    ("perplexity", float("nan")), ("perplexity", float("inf")), ("perplexity", True),
    ("exaggeration", float("nan")), ("exaggeration", float("inf")),
    ("momentum_early", float("nan")), ("momentum_late", float("nan")),
    ("momentum_late", 1.0), ("momentum_early", -0.1),
    ("iterations", 1000.5), ("iterations", np.float64(1000.0)), ("iterations", 0),
    ("exaggeration_iters", -3), ("exaggeration_iters", 2.5),
])
def test_config_rejects_a_bad_value_naming_its_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be "):
        TsneConfig(**{field: value})


def test_config_accepts_numpy_scalars():
    cfg = TsneConfig(perplexity=np.float64(5.0), iterations=np.int64(300),
                     exaggeration_iters=np.int32(100), momentum_late=np.float32(0.8))
    assert cfg.iterations == 300


def test_rejects_too_few_points():
    with pytest.raises(ValueError, match="at least 10"):
        tsne(np.zeros((5, 3)), TsneConfig(perplexity=2.0))


def test_rejects_infeasible_perplexity():
    x = np.random.default_rng(0).normal(size=(20, 3))
    with pytest.raises(ValueError, match="perplexity"):
        tsne(x, TsneConfig(perplexity=10.0))  # needs < (20-1)/3


def test_rejects_non_finite_and_wrong_rank():
    x = np.random.default_rng(0).normal(size=(20, 3))
    x[3, 1] = np.inf
    with pytest.raises(ValueError, match="finite"):
        tsne(x, TsneConfig(perplexity=5.0))
    with pytest.raises(ValueError, match="2-D"):
        tsne(np.zeros(30), TsneConfig(perplexity=5.0))


# --- affinity contracts ---


def reference_entropy_probs(dist_row, beta):
    """Shannon entropy (nats) and conditional probabilities for one point."""
    p = np.exp(-dist_row * beta)
    s = p.sum()
    if s <= 0:
        return 0.0, np.zeros_like(p)
    p = p / s
    nz = p > 0
    h = -np.sum(p[nz] * np.log(p[nz]))
    return h, p


def reference_conditional_affinities(x, perplexity, tol=1e-5, max_iter=60):
    """The perplexity search one row at a time."""
    n = x.shape[0]
    sq = np.sum(x * x, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0)
    target = np.log(perplexity)
    p_cond = np.zeros((n, n))
    for i in range(n):
        row = np.delete(d2[i], i)
        beta, lo, hi = 1.0, 0.0, np.inf
        for _ in range(max_iter):
            h, p = reference_entropy_probs(row, beta)
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


def far_clusters():
    rng = np.random.default_rng(6)
    return np.vstack([rng.normal(size=(60, 4)), rng.normal(size=(60, 4)) + 45.0])


def five_copies_each():
    return np.repeat(np.random.default_rng(7).normal(size=(12, 3)), 5, axis=0)


SEARCH_CASES = {
    "gaussian": (lambda: np.random.default_rng(5).normal(size=(120, 16)), 30.0),
    # many probabilities underflow to 0 at the searched bandwidths
    "far_clusters": (far_clusters, 30.0),
    # each row's four copies hold entropy above log(3) at any bandwidth, so
    # the search sharpens until it runs out of steps
    "five_copies_each": (five_copies_each, 3.0),
}


@pytest.mark.parametrize("case", sorted(SEARCH_CASES))
def test_all_rows_search_is_bit_identical_to_the_per_row_loop(case):
    make_x, perplexity = SEARCH_CASES[case]
    x = make_x()
    got = conditional_affinities(x, perplexity)
    assert np.array_equal(got, reference_conditional_affinities(x, perplexity))
    if case == "far_clusters":
        assert np.count_nonzero(got == 0.0) > 10 * len(x)
    if case == "five_copies_each":  # one more step would move the rows
        assert not np.array_equal(got, conditional_affinities(x, perplexity, max_iter=61))


@pytest.mark.parametrize("case", sorted(SEARCH_CASES))
def test_row_entropies_equal_one_row_calls(case):
    # a row with zero probabilities must sum only its nonzero terms, as the
    # one-row search does; summing the zeros too pairs the terms otherwise
    make_x, _ = SEARCH_CASES[case]
    x = make_x()
    n = len(x)
    d2 = ((x[:, None] - x[None]) ** 2).sum(-1)
    dist = d2[~np.eye(n, dtype=bool)].reshape(n, n - 1)
    for beta in np.geomspace(1e-4, 1e4, 25):
        betas = np.full(n, beta)
        h, p = tsne_module()._entropies(dist, betas)
        for i in range(n):
            h_ref, p_ref = reference_entropy_probs(dist[i], beta)
            assert h[i] == h_ref and np.array_equal(p[i], p_ref), (beta, i)


def test_conditional_rows_hit_target_perplexity():
    x, _ = gaussian_pair()
    pc = conditional_affinities(x, 30.0)
    assert np.all(np.diag(pc) == 0.0)
    np.testing.assert_allclose(pc.sum(axis=1), 1.0, atol=1e-9)
    h = -np.sum(np.where(pc > 0, pc * np.log(np.where(pc > 0, pc, 1.0)), 0.0), axis=1)
    np.testing.assert_allclose(np.exp(h), 30.0, atol=1e-3)


def test_joint_affinities_symmetric_and_normalized():
    x, _ = gaussian_pair()
    p = joint_affinities(x, 30.0)
    np.testing.assert_array_equal(p, p.T)
    assert p.min() > 0.0  # floor keeps the KL finite
    assert abs(p.sum() - 1.0) < 1e-6


def test_kl_objective_nonnegative():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(30, 4))
    p = joint_affinities(x, 8.0)
    for seed in range(3):
        y = np.random.default_rng(seed).normal(size=(30, 2))
        assert kl_objective(p, _low_dim_q(y)[0]) >= -1e-9


# --- the loop against a reference that allocates every step ---


def reference_low_dim_q(y):
    sq = np.sum(y * y, axis=1)
    num = 1.0 / (1.0 + np.maximum(sq[:, None] + sq[None, :] - 2.0 * (y @ y.T), 0.0))
    np.fill_diagonal(num, 0.0)
    q = num / num.sum()
    return np.maximum(q, 1e-12), num


def reference_kl(p, q):
    mask = ~np.eye(p.shape[0], dtype=bool)
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask]), dtype=np.float64))


def reference_tsne(x, cfg, dtype=np.float32):
    """The exact t-SNE loop written with fresh n x n arrays at every step.

    The map runs in dtype against P cast to dtype: float32 is the library's
    precision, float64 the reference its quality is checked against.
    """
    n = x.shape[0]
    lr = max(n / (4.0 * cfg.exaggeration), 50.0) if cfg.learning_rate == "auto" \
        else cfg.learning_rate
    p_true = joint_affinities(x, cfg.perplexity).astype(dtype)
    rng = np.random.default_rng(cfg.seed)
    y = rng.normal(0.0, 1e-4, size=(n, 2)).astype(dtype)
    y -= y.mean(axis=0)
    inc = np.zeros_like(y)
    gains = np.ones_like(y)
    trace = np.empty(cfg.iterations)
    q, num = reference_low_dim_q(y)
    for it in range(cfg.iterations):
        p = p_true * cfg.exaggeration if it < cfg.exaggeration_iters else p_true
        pq = (p - q) * num
        grad = 4.0 * ((np.diag(pq.sum(axis=1)) - pq) @ y)
        momentum = cfg.momentum_early if it < cfg.exaggeration_iters else cfg.momentum_late
        flips = np.sign(grad) != np.sign(inc)
        gains = np.where(flips, gains + 0.2, gains * 0.8)
        np.clip(gains, 0.01, None, out=gains)
        inc = momentum * inc - lr * gains * grad
        y = y + inc
        y -= y.mean(axis=0)
        q, num = reference_low_dim_q(y)
        trace[it] = reference_kl(p_true, q)
    coords = y.astype(np.float64)
    return coords - coords.mean(axis=0), trace


def duplicated_pair():
    x, _ = gaussian_pair(n_per=30, dim=5)
    return np.vstack([x, x[:1]])  # 61 points, the last a copy of the first


REFERENCE_CASES = {
    "n12": (lambda: np.random.default_rng(0).normal(size=(12, 3)),
            TsneConfig(perplexity=3.0, iterations=300, exaggeration_iters=100)),
    "n61_duplicated_fixed_lr": (duplicated_pair,
                                TsneConfig(perplexity=10.0, iterations=300,
                                           exaggeration_iters=100, learning_rate=200.0)),
    "n40_exaggeration_to_the_end": (lambda: np.random.default_rng(2).normal(size=(40, 4)),
                                    TsneConfig(perplexity=5.0, iterations=251,
                                               exaggeration_iters=250, seed=5)),
    "n240_d128": (lambda: np.random.default_rng(3).normal(size=(240, 128)),
                  TsneConfig(perplexity=30.0, iterations=300, exaggeration_iters=250)),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_tsne_is_bit_identical_to_the_allocating_loop(case):
    make_x, cfg = REFERENCE_CASES[case]
    x = make_x()
    res = tsne(x, cfg)
    coords, trace = reference_tsne(x, cfg)
    assert np.array_equal(res.coords, coords)
    assert np.array_equal(res.objective_trace, trace)


def test_q_and_objective_match_the_reference_with_and_without_buffers():
    rng = np.random.default_rng(4)
    n = 33
    p64 = joint_affinities(rng.normal(size=(n, 6)), 8.0)
    y64 = rng.normal(size=(n, 2))
    for dtype in (np.float64, np.float32):
        p, y = p64.astype(dtype), y64.astype(dtype)
        q_ref, num_ref = reference_low_dim_q(y)
        assert q_ref.dtype == dtype
        for buf in (None, np.full((3, n, n), np.nan, dtype=dtype)):
            q, num = _low_dim_q(y, buf)
            assert q.dtype == num.dtype == dtype
            assert np.array_equal(q, q_ref) and np.array_equal(num, num_ref)
            for out in (None, np.full((n - 1, n), np.nan, dtype=dtype)):
                assert kl_objective(p, q, out) == reference_kl(p, q_ref)


# --- the float32 map against the float64 loop it replaced ---


def knn_overlap(a, b, k=10):
    """Mean share of each point's k nearest neighbours in a kept in b."""

    def knn(v):
        d = ((v[:, None] - v[None, :]) ** 2).sum(-1)
        np.fill_diagonal(d, np.inf)
        return np.argsort(d, axis=1, kind="stable")[:, :k]

    na, nb = knn(a), knn(b)
    return np.mean([len(set(na[i]) & set(nb[i])) / k for i in range(len(a))])


QUALITY_CASES = {
    "n240_d128": REFERENCE_CASES["n240_d128"],
    "gaussian_pair": (lambda: gaussian_pair()[0], BENCH_CFG),
}


@pytest.mark.parametrize("case", sorted(QUALITY_CASES))
def test_float32_map_keeps_the_quality_of_the_float64_loop(case):
    make_x, cfg = QUALITY_CASES[case]
    x = make_x()
    res = tsne(x, cfg)
    coords64, trace64 = reference_tsne(x, cfg, np.float64)
    # no worse than float64: on the gaussian pair float32 ends better on both
    # counts (KL 0.164 against 0.186, 10-NN 0.629 against 0.590)
    assert res.objective_trace[-1] <= 1.05 * trace64[-1]
    assert knn_overlap(x, res.coords) >= knn_overlap(x, coords64) - 0.05


@pytest.mark.parametrize("learning_rate", ["auto", np.float64(50.0)])
def test_numpy_scalars_in_the_config_keep_the_map_in_float32(monkeypatch, learning_rate):
    tsne_mod = tsne_module()
    dtypes = []
    low_dim_q = tsne_mod._low_dim_q

    def spy(y, *a, **k):
        dtypes.append(y.dtype)
        return low_dim_q(y, *a, **k)

    monkeypatch.setattr(tsne_mod, "_low_dim_q", spy)
    cfg = TsneConfig(perplexity=np.float64(5.0), iterations=np.int64(120),
                     exaggeration=np.float64(12.0), exaggeration_iters=np.int64(60),
                     learning_rate=learning_rate, momentum_early=np.float64(0.5),
                     momentum_late=np.float64(0.8), seed=np.int64(0))
    res = tsne(np.random.default_rng(0).normal(size=(30, 4)), cfg)
    assert dtypes == [np.float32] * (cfg.iterations + 1)
    assert res.coords.dtype == np.float64


def tsne_module():
    # the package exports the function tsne, which shadows the module's name
    return importlib.import_module("eegimage.tsne")


def count_calls(monkeypatch):
    tsne_mod = tsne_module()
    calls = {"_low_dim_q": 0, "kl_objective": 0}
    for name in calls:
        orig = getattr(tsne_mod, name)

        def counted(*a, orig=orig, name=name, **k):
            calls[name] += 1
            return orig(*a, **k)

        monkeypatch.setattr(tsne_mod, name, counted)
    return calls


def test_each_iteration_evaluates_q_and_the_objective_once(monkeypatch):
    # the package exports the function tsne, which shadows the module's name
    tsne_mod = importlib.import_module("eegimage.tsne")
    calls = {"_low_dim_q": 0, "kl_objective": 0}
    for name in calls:
        orig = getattr(tsne_mod, name)

        def counted(*a, orig=orig, name=name, **k):
            calls[name] += 1
            return orig(*a, **k)

        monkeypatch.setattr(tsne_mod, name, counted)
    cfg = TsneConfig(perplexity=5.0, iterations=120, exaggeration_iters=60)
    tsne(np.random.default_rng(0).normal(size=(30, 4)), cfg)
    # one Q for the initial map, then one Q and one objective per iteration
    assert calls == {"_low_dim_q": cfg.iterations + 1, "kl_objective": cfg.iterations}


# --- the objective on a schedule ---


@pytest.mark.parametrize("case", ["n61_duplicated_fixed_lr", "n40_exaggeration_to_the_end",
                                  "n240_d128"])
def test_a_scheduled_trace_leaves_the_map_and_samples_the_full_trace(case):
    make_x, cfg = REFERENCE_CASES[case]
    x = make_x()
    full = tsne(x, cfg)
    np.testing.assert_array_equal(full.trace_iterations, np.arange(cfg.iterations))
    sched = tsne(x, cfg, trace_every=50)
    assert np.array_equal(sched.coords, full.coords)
    its = sched.trace_iterations
    assert its.dtype.kind == "i" and its[0] == 0 and its[-1] == cfg.iterations - 1
    want = sorted({*range(0, cfg.iterations, 50), cfg.iterations - 1})
    np.testing.assert_array_equal(its, want)
    assert np.array_equal(sched.objective_trace, full.objective_trace[its])


def test_a_scheduled_trace_evaluates_the_objective_only_where_it_is_kept(monkeypatch):
    calls = count_calls(monkeypatch)
    cfg = TsneConfig(perplexity=5.0, iterations=120, exaggeration_iters=60)
    res = tsne(np.random.default_rng(0).normal(size=(30, 4)), cfg, trace_every=50)
    np.testing.assert_array_equal(res.trace_iterations, [0, 50, 100, 119])
    assert calls == {"_low_dim_q": cfg.iterations + 1,
                     "kl_objective": len(res.trace_iterations)}


@pytest.mark.parametrize("bad", [0, -1, 1.5, True, 50.0, "50", None])
def test_rejects_a_bad_trace_schedule(bad):
    x = np.random.default_rng(0).normal(size=(20, 3))
    with pytest.raises(ValueError, match="trace_every"):
        tsne(x, TsneConfig(perplexity=5.0, iterations=60, exaggeration_iters=30),
             trace_every=bad)


# --- the benchmark ---


def test_two_gaussians_recovered():
    x, labels = gaussian_pair()
    res = tsne(x, BENCH_CFG)
    assign = two_means(res.coords)
    agreement = max((assign == labels).mean(), (assign != labels).mean())
    assert agreement >= 0.95


def test_duplicated_points_land_together():
    x, _ = gaussian_pair()
    xd = np.vstack([x, x[:1]])  # last row duplicates the first
    res = tsne(xd, BENCH_CFG)
    y = res.coords
    diameter = np.max(np.linalg.norm(y[:, None] - y[None], axis=-1))
    assert np.linalg.norm(y[0] - y[-1]) < 0.01 * diameter


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_holds_across_seeds(seed):
    cfg = replace(BENCH_CFG, seed=seed)
    x, labels = gaussian_pair()
    assign = two_means(tsne(x, cfg).coords)
    assert max((assign == labels).mean(), (assign != labels).mean()) >= 0.95
    xd = np.vstack([x, x[:1]])
    y = tsne(xd, cfg).coords
    diameter = np.max(np.linalg.norm(y[:, None] - y[None], axis=-1))
    assert np.linalg.norm(y[0] - y[-1]) < 0.01 * diameter


def test_auto_learning_rate_rule():
    # 101 points at exaggeration 12: max(101 / 48, 50) = 50
    x, _ = gaussian_pair()
    xd = np.vstack([x, x[:1]])
    auto = tsne(xd, BENCH_CFG)
    explicit = tsne(xd, replace(BENCH_CFG, learning_rate=50.0))
    assert BENCH_CFG.learning_rate == "auto"
    np.testing.assert_array_equal(auto.coords, explicit.coords)
    np.testing.assert_array_equal(auto.objective_trace, explicit.objective_trace)
    # a fixed step stays reachable and deterministic
    fixed = replace(BENCH_CFG, learning_rate=200.0)
    a, b = tsne(xd, fixed), tsne(xd, fixed)
    np.testing.assert_array_equal(a.coords, b.coords)
    np.testing.assert_array_equal(a.objective_trace, b.objective_trace)
    assert not np.array_equal(a.coords, auto.coords)


def test_objective_decreases_after_exaggeration():
    x, _ = gaussian_pair()
    res = tsne(x, BENCH_CFG)
    trace = res.objective_trace
    assert trace.shape == (BENCH_CFG.iterations,)
    boundary = BENCH_CFG.exaggeration_iters
    assert trace[-1] < trace[boundary]
    assert trace[-1] < trace[boundary - 1]
    assert np.all(np.isfinite(trace))


def test_output_is_translation_centered():
    x, _ = gaussian_pair()
    res = tsne(x, BENCH_CFG)
    assert np.all(np.abs(res.coords.mean(axis=0)) <= 1e-6)


def test_deterministic_per_seed():
    x, _ = gaussian_pair(n_per=20)
    cfg = TsneConfig(perplexity=8.0, iterations=120, exaggeration_iters=60, seed=3)
    a = tsne(x, cfg)
    b = tsne(x, cfg)
    np.testing.assert_array_equal(a.coords, b.coords)
    np.testing.assert_array_equal(a.objective_trace, b.objective_trace)
    other = tsne(x, TsneConfig(perplexity=8.0, iterations=120, exaggeration_iters=60, seed=4))
    assert not np.array_equal(a.coords, other.coords)


# --- csv emission ---


def test_csv_format():
    coords = np.array([[1.0, -2.0], [0.25, 0.5]])
    text = tsne_to_csv(coords, np.array([0, 5]), ["s1", "s2"])
    lines = text.splitlines()
    assert lines[0] == "id,x,y,consensus"
    assert len(lines) == 3
    assert text.endswith("\n")
    sid, cx, cy, lab = lines[1].split(",")
    assert sid == "s1" and float(cx) == 1.0 and float(cy) == -2.0 and lab == "0"
