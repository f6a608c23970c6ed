"""Threshold dynamics: diffusion, thresholding, runs, restarts."""

import os
import sys
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mpxmbo import (
    DetectConfig,
    Partition,
    basis_for_method,
    compute_degrees,
    detect,
    diffusion_step,
    mbo_run,
    modularity_op,
    multiplex_modularity,
    oracle_max_modularity,
    random_onehot_init,
    shifted_neg_lk_op,
    threshold,
)
from mpxmbo import mbo
from mpxmbo.mbo import run_rng

from conftest import (
    connected_network,
    expm,
    florentine_best_assignment,
    from_dense_layers,
    full_basis,
    planted_network,
    random_network,
    to_dense,
)


def test_init_uniform_and_reproducible():
    rng = run_rng(123, 0)
    draws = random_onehot_init(100_000, 4, rng)
    counts = np.bincount(draws.assignment, minlength=5)[1:]
    expect = 25_000.0
    sigma = np.sqrt(100_000 * 0.25 * 0.75)
    assert np.abs(counts - expect).max() <= 3 * sigma
    again = random_onehot_init(100_000, 4, run_rng(123, 0))
    assert np.array_equal(draws.assignment, again.assignment)
    other_run = random_onehot_init(100_000, 4, run_rng(123, 1))
    assert not np.array_equal(draws.assignment, other_run.assignment)


def test_run_rng_independent_of_order():
    a = [random_onehot_init(50, 3, run_rng(9, i)).assignment for i in range(5)]
    b = [random_onehot_init(50, 3, run_rng(9, i)).assignment for i in reversed(range(5))]
    for x, y in zip(a, reversed(b)):
        assert np.array_equal(x, y)
    # run i of seed s draws child i of SeedSequence(s), whatever the seed
    for s in (0, 9, 2**64):
        children = np.random.SeedSequence(s).spawn(5)
        for i, child in enumerate(children):
            assert np.array_equal(
                run_rng(s, i).integers(2**63, size=8),
                np.random.default_rng(child).integers(2**63, size=8),
            )
    # a seed sweep does not repeat its starts: seeds 0 and 31 share none of
    # their 32 initial partitions, and a seed past 64 bits is its own seed
    starts = {
        s: {random_onehot_init(50, 3, run_rng(s, i)).assignment.tobytes() for i in range(32)}
        for s in (0, 31)
    }
    assert len(starts[0]) == len(starts[31]) == 32
    assert not starts[0] & starts[31]
    assert not np.array_equal(
        run_rng(2**64, 0).integers(2**63, size=8), run_rng(0, 0).integers(2**63, size=8)
    )
    with pytest.raises(ValueError):
        run_rng(-1, 0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"method": "walktrap"},
        {"n_c": 1},
        {"k": 0},
        {"gamma": 0.0},
        {"gamma": (1.0, -2.0)},
        {"dt": 0.0},
        {"dt": -1.0},
        {"n_runs": 0},
        {"max_iter": -1},
        {"eig_tol": 0.0},
        {"eig_tol": 1.0},
        {"eig_tol": float("inf")},
        {"dt": float("nan")},
        {"gamma": (1.0, float("inf"))},
        {"gamma": []},
        {"gamma": [[1.0, 2.0]]},
        {"eig_tol": float("nan")},
        {"seed": -1},
        {"seed": 1.5},
    ],
)
def test_config_validation(kwargs):
    base = dict(method="dgfm3", n_c=3, k=5)
    base.update(kwargs)
    with pytest.raises(ValueError):
        DetectConfig(**base)


def test_config_takes_a_numpy_integer_seed():
    config = DetectConfig(method="dgfm3", n_c=3, k=5, seed=np.int64(3))
    assert config == DetectConfig(method="dgfm3", n_c=3, k=5, seed=3)


def test_diffusion_zero_time_is_projection(florentine):
    net, deg = florentine
    op = modularity_op(net, deg, np.array([1.0, 1.0]))
    basis = full_basis(op)
    u = random_onehot_init(net.nL, 3, run_rng(0, 0)).one_hot()
    out = diffusion_step(basis, 0.0, u)
    assert np.abs(out - u).max() <= 1e-12
    cut = basis.truncate(5)
    proj = cut.eigenvectors @ (cut.eigenvectors.T @ u)
    assert np.abs(diffusion_step(cut, 0.0, u) - proj).max() <= 1e-12


def test_diffusion_rejects_wrong_shape(florentine):
    net, deg = florentine
    basis = basis_for_method("dgfm3", net, deg, 1.0, 4)
    with pytest.raises(ValueError):
        diffusion_step(basis, 1.0, np.ones(net.nL))
    with pytest.raises(ValueError):
        diffusion_step(basis, 1.0, np.ones((net.nL + 1, 3)))


def test_full_basis_diffusion_matches_expm():
    # with every eigenpair kept, one diffusion step is the exact matrix
    # exponential; compare against scaling-and-squaring
    rng = np.random.default_rng(55)
    worst = 0.0
    for trial in range(6):
        net = (
            connected_network(rng, int(rng.integers(8, 30)), int(rng.integers(1, 4)))
            if trial % 2
            else random_network(rng, n_max=30)
        )
        deg = compute_degrees(net)
        gamma = np.full(net.L, 0.8)
        u = random_onehot_init(net.nL, 4, rng).one_hot()
        for dt in (0.3, 1.0):
            op = modularity_op(net, deg, gamma)
            ref = expm(dt * to_dense(op)) @ u
            worst = max(worst, np.abs(diffusion_step(full_basis(op), dt, u) - ref).max())
            op_s, sigma = shifted_neg_lk_op(net, deg, gamma)
            ref = expm(dt * (to_dense(op_s) - sigma * np.eye(net.nL))) @ u
            got = diffusion_step(full_basis(op_s, shift=sigma), dt, u)
            worst = max(worst, np.abs(got - ref).max())
    assert worst <= 1e-8


def test_threshold_rows():
    v = np.array(
        [
            [0.2, 0.5, 0.3],
            [0.4, 0.4, 0.2],  # tie goes to the first column
            [-1.0, -2.0, -3.0],
            [0.0, 0.0, 0.0],
        ]
    )
    part = threshold(v)
    assert part.assignment.tolist() == [2, 1, 1, 1]
    assert part.n_c == 3


def test_threshold_idempotent_on_onehot():
    rng = np.random.default_rng(3)
    part = Partition(rng.integers(1, 5, size=40).astype(np.int64), 4)
    again = threshold(part.one_hot())
    assert np.array_equal(again.assignment, part.assignment)


def test_threshold_rejects_nonfinite():
    with pytest.raises(ValueError):
        threshold(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        threshold(np.array([[np.inf, 0.0]]))


@pytest.mark.parametrize("method,k", [("mpbtv", 4), ("dgfm3", 7)])
def test_optimum_is_fixed_point(florentine, method, k):
    net, deg = florentine
    gamma = 0.6
    config = DetectConfig(method=method, n_c=3, k=k, gamma=gamma)
    basis = basis_for_method(method, net, deg, gamma, k)
    init = Partition(florentine_best_assignment(), 3)
    res = mbo_run(basis, config, init, net, deg)
    assert res.converged
    assert res.iterations == 1
    assert np.array_equal(res.partition.assignment, init.assignment)
    assert res.modularity == pytest.approx(70.84 / 104.0, abs=1e-12)


def test_zero_iteration_budget_returns_init(florentine):
    net, deg = florentine
    config = DetectConfig(method="dgfm3", n_c=3, k=7, gamma=0.6, max_iter=0)
    basis = basis_for_method("dgfm3", net, deg, 0.6, 7)
    init = random_onehot_init(net.nL, 3, run_rng(1, 0))
    res = mbo_run(basis, config, init, net, deg)
    assert res.iterations == 0
    assert not res.converged
    assert np.array_equal(res.partition.assignment, init.assignment)
    assert res.modularity == pytest.approx(
        multiplex_modularity(init, net, deg, 0.6), abs=1e-14
    )


def test_run_modularity_matches_recompute(florentine):
    net, deg = florentine
    config = DetectConfig(method="mpbtv", n_c=3, k=4, gamma=0.6)
    basis = basis_for_method("mpbtv", net, deg, 0.6, 4)
    for i in range(5):
        init = random_onehot_init(net.nL, 3, run_rng(17, i))
        res = mbo_run(basis, config, init, net, deg, run_index=i)
        assert res.run_index == i
        q = multiplex_modularity(res.partition, net, deg, 0.6)
        assert res.modularity == pytest.approx(q, abs=1e-14)


def test_two_triangles_separating_inits_reach_half(two_triangles):
    net, deg = two_triangles
    config = DetectConfig(method="dgfm3", n_c=2, k=2)
    basis = basis_for_method("dgfm3", net, deg, 1.0, 2)
    clean = np.array([1, 1, 1, 2, 2, 2], dtype=np.int64)
    inits = [clean]
    for j in range(6):
        flipped = clean.copy()
        flipped[j] = 3 - flipped[j]
        inits.append(flipped)
    for lab in inits:
        res = mbo_run(basis, config, Partition(lab, 2), net, deg)
        assert res.converged
        assert res.modularity == pytest.approx(0.5, abs=1e-14)


def reference_run(basis, config, init, net, deg):
    """The runs loop spelled out with the public steps: a fresh one-hot
    indicator from a Partition, and a thresholded Partition, every sweep.
    A row of the basis whose norm is at most eig_tol times the largest row
    norm takes community 1, as an all-zero row would."""
    top = max(float(basis.eigenvalues[0]), 0.0)
    basis = replace(basis, eigenvalues=basis.eigenvalues - top)
    norms = np.linalg.norm(basis.eigenvectors, axis=1)
    unreached = norms <= config.eig_tol * norms.max()
    part, iterations, converged = init, 0, False
    for _ in range(config.max_iter):
        new = threshold(diffusion_step(basis, config.dt, part.one_hot()))
        new = Partition(np.where(unreached, 1, new.assignment), new.n_c)
        iterations += 1
        moved = int(np.count_nonzero(new.assignment != part.assignment))
        part = new
        if moved == 0:
            converged = True
            break
    return part, iterations, converged, multiplex_modularity(part, net, deg, config.gamma)


@pytest.fixture(scope="module")
def planted():
    net = planted_network(np.random.default_rng(31), 200, 4, 4)
    return net, compute_degrees(net)


@pytest.mark.parametrize("method", ["mpbtv", "dgfm3"])
@pytest.mark.parametrize(
    "case,gamma,n_c,k",
    [
        ("florentine", 0.6, 3, 6),
        ("two_triangles", 1.0, 2, 3),
        ("planted", 1.0, 4, 12),
        ("florentine", 0.6, 34, 6),
    ],
)
def test_mbo_run_equals_public_steps(request, monkeypatch, case, gamma, n_c, k, method):
    net, deg = request.getfixturevalue(case)
    basis = basis_for_method(method, net, deg, gamma, k, rng_seed=2)
    # one row block per run, then blocks of at least 2, 3 and 5 rows (and
    # moved-row updates of at most as many): Florentine (nL = 34) in rows
    # of 3 and two triangles (nL = 6) in rows of 5 would leave a last block
    # of one row
    blocks = [mbo._BLOCK] + [rows * max(n_c, k) for rows in (2, 3, 5)]
    budget_stops = 0
    # no sweep, a budget of two, and the default
    for extra in ({"max_iter": 0}, {"max_iter": 2}, {}):
        config = DetectConfig(method=method, n_c=n_c, k=k, gamma=gamma, **extra)
        for i in range(4):
            init = random_onehot_init(net.nL, n_c, run_rng(7, i))
            part, iterations, converged, q = reference_run(basis, config, init, net, deg)
            for block in blocks:
                monkeypatch.setattr(mbo, "_BLOCK", block)
                res = mbo_run(basis, config, init, net, deg, run_index=i)
                assert res.partition.assignment.dtype == part.assignment.dtype
                assert res.partition.assignment.tobytes() == part.assignment.tobytes()
                assert res.partition.n_c == part.n_c
                assert (res.iterations, res.converged) == (iterations, converged)
                assert res.modularity == q
            budget_stops += iterations == config.max_iter > 0 and not converged
    if case == "planted":
        assert budget_stops > 0


def test_unreached_rows_do_not_follow_rounding(florentine):
    # the two families isolated in both layers give four node-layer pairs
    # that none of the top 7 eigenvectors reaches: their rows of Phi are
    # rounding residue, which noise of size 1e-12 replaces
    net, deg = florentine
    config = DetectConfig(method="dgfm3", n_c=3, k=7, gamma=0.6, n_runs=50, seed=7)
    basis = basis_for_method("dgfm3", net, deg, 0.6, 7, rng_seed=7)
    noise = 1e-12 * np.random.default_rng(1).standard_normal(basis.eigenvectors.shape)
    noisy = replace(basis, eigenvectors=basis.eigenvectors + noise)
    best = detect(net, deg, config, basis=basis).best
    again = detect(net, deg, config, basis=noisy).best
    assert best.partition.assignment.tobytes() == again.partition.assignment.tobytes()
    assert np.all(best.partition.assignment[[11, 16, 28, 33]] == 1)
    assert best.modularity >= 0.671


@pytest.mark.parametrize("n_c", [400, 2000])
def test_mbo_run_memory_bounded(n_c):
    # a run holds its labels, the k x n_c coefficients and one row block of
    # products and of label changes, never an nL x n_c indicator
    net = planted_network(np.random.default_rng(31), 500, 4, 4)
    deg = compute_degrees(net)
    nL, k = net.nL, 8
    basis = basis_for_method("dgfm3", net, deg, 1.0, k, rng_seed=1)
    config = DetectConfig(method="dgfm3", n_c=n_c, k=k)
    init = random_onehot_init(nL, n_c, run_rng(1, 0))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        res = mbo_run(basis, config, init, net, deg)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert res.iterations > 1
    assert peak <= 8 * (16 * nL + 4 * k * n_c + 2 * mbo._BLOCK)


def test_nonfinite_eigenvector_is_rejected(florentine):
    net, deg = florentine
    config = DetectConfig(method="dgfm3", n_c=3, k=7, gamma=0.6)
    basis = basis_for_method("dgfm3", net, deg, 0.6, 7)
    vecs = basis.eigenvectors.copy()
    vecs[5, 2] = np.nan
    bad = replace(basis, eigenvectors=vecs)
    init = random_onehot_init(net.nL, 3, run_rng(1, 0))
    with pytest.raises(ValueError, match="non-finite values in diffused indicator"):
        diffusion_step(bad, 1.0, init.one_hot())
    with pytest.raises(ValueError, match="non-finite values in diffused indicator"):
        mbo_run(bad, config, init, net, deg)
    with pytest.raises(ValueError, match="non-finite values in diffused indicator"):
        detect(net, deg, config, basis=bad)


def test_detect_single_run_equals_mbo_run(florentine):
    net, deg = florentine
    config = DetectConfig(method="dgfm3", n_c=3, k=7, gamma=0.6, n_runs=1, seed=5)
    out = detect(net, deg, config)
    basis = basis_for_method("dgfm3", net, deg, 0.6, 7, rng_seed=5)
    init = random_onehot_init(net.nL, 3, run_rng(5, 0))
    ref = mbo_run(basis, config, init, net, deg, run_index=0)
    assert np.array_equal(out.best.partition.assignment, ref.partition.assignment)
    assert out.best.modularity == ref.modularity
    assert len(out.runs) == 1


def test_detect_best_dominates_and_breaks_ties_low(two_triangles):
    net, deg = two_triangles
    config = DetectConfig(method="dgfm3", n_c=2, k=2, n_runs=12, seed=2)
    out = detect(net, deg, config)
    qs = [r.modularity for r in out.runs]
    assert out.best.modularity == max(qs)
    assert out.best.run_index == int(np.argmax(qs))  # first attaining run wins
    assert [r.run_index for r in out.runs] == list(range(12))


@pytest.fixture
def detect_recorded(monkeypatch):
    """detect that also returns every run's partition by run index, recorded
    as mbo_run returns it: the result keeps only the best run's."""
    parts = {}
    run = mbo.mbo_run

    def recorder(*args, **kwargs):
        res = run(*args, **kwargs)
        parts[res.run_index] = res.partition
        return res

    monkeypatch.setattr(mbo, "mbo_run", recorder)

    def call(*args, **kwargs):
        parts.clear()
        out = detect(*args, **kwargs)
        return out, dict(parts)

    return call


def assert_same_runs(a, a_parts, b, b_parts):
    """Two detect results agree run for run: record and partition bytes."""
    assert len(a.runs) == len(b.runs) == len(a_parts) == len(b_parts)
    for ra, rb in zip(a.runs, b.runs, strict=True):
        assert np.float64(ra.modularity).tobytes() == np.float64(rb.modularity).tobytes()
        assert (ra.iterations, ra.converged, ra.run_index) == (
            rb.iterations,
            rb.converged,
            rb.run_index,
        )
        pa, pb = a_parts[ra.run_index], b_parts[rb.run_index]
        assert pa.assignment.dtype == pb.assignment.dtype
        assert pa.assignment.tobytes() == pb.assignment.tobytes()
        assert pa.n_c == pb.n_c
    for out, parts in ((a, a_parts), (b, b_parts)):
        assert out.runs[out.best.run_index] is out.best
        assert out.best.partition is parts[out.best.run_index]


def test_detect_threads_do_not_change_results(monkeypatch, florentine, detect_recorded):
    # four CPUs, so that threads=4 starts a pool on any host
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    net, deg = florentine
    config = DetectConfig(method="mpbtv", n_c=3, k=4, gamma=0.6, n_runs=8, seed=3)
    seq, seq_parts = detect_recorded(net, deg, config, threads=1)
    par, par_parts = detect_recorded(net, deg, config, threads=4)
    assert_same_runs(seq, seq_parts, par, par_parts)


def test_detect_best_ignores_completion_order(monkeypatch, two_triangles):
    # lower run indices sleep longer, so later runs finish first; the best
    # is still the first run in index order that reaches the maximum Q, and
    # only it keeps a partition.  Four workers, switching threads often,
    # must still make every run once and record it once.
    finished = []
    run = mbo.mbo_run

    def slow_early(*args, **kwargs):
        res = run(*args, **kwargs)
        time.sleep(0.01 * (12 - res.run_index))
        finished.append(res.run_index)
        return res

    monkeypatch.setattr(mbo, "mbo_run", slow_early)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    net, deg = two_triangles
    config = DetectConfig(method="dgfm3", n_c=2, k=2, n_runs=12, seed=2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = detect(net, deg, config, threads=4)
    finally:
        sys.setswitchinterval(interval)
    qs = [r.modularity for r in out.runs]
    first = int(np.argmax(qs))
    assert out.best.run_index == first
    assert out.best.modularity == max(qs)
    assert out.runs[first] is out.best
    assert out.best.partition is not None
    assert all(r.partition is None for i, r in enumerate(out.runs) if i != first)
    assert [r.run_index for r in out.runs] == list(range(12))
    # the order was exercised: a later run with the maximum Q finished first
    assert sorted(finished) == list(range(12))
    assert next(i for i in finished if qs[i] == max(qs)) != first


def test_detect_memory_flat_in_runs(monkeypatch):
    # detect keeps one partition, not one per run: the tracemalloc peak at
    # 400 runs stays within 1 MiB of the peak at 4 runs (400 partitions of
    # nL = 2000 labels would be 6.4 MB), sequentially and in the pool
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    net = planted_network(np.random.default_rng(31), 500, 4, 4)
    deg = compute_degrees(net)
    basis = basis_for_method("dgfm3", net, deg, 1.0, 8)
    for threads in (1, 2):
        peaks = []
        for n_runs in (4, 400):
            config = DetectConfig(method="dgfm3", n_c=4, k=8, n_runs=n_runs, max_iter=1)
            tracemalloc.start()
            try:
                out = detect(net, deg, config, basis=basis, threads=threads)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert len(out.runs) == n_runs
        assert peaks[1] - peaks[0] <= 1 << 20


def test_detect_starts_at_most_the_cpu_count(monkeypatch, two_triangles, detect_recorded):
    # the pool would start a thread per run while none is idle; a fake pool
    # records its size and maps in this thread, so no thread is started
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(mbo, "ThreadPoolExecutor", FakePool)
    net, deg = two_triangles
    # no more workers than runs either; one CPU, one run, or an unknown CPU
    # count takes the sequential path: no pool at all
    for cpus, runs, want in ((3, 5, [3]), (8, 5, [5]), (8, 1, []), (1, 5, []), (None, 5, [])):
        config = DetectConfig(method="dgfm3", n_c=2, k=2, n_runs=runs, seed=4)
        seq, seq_parts = detect_recorded(net, deg, config, threads=1)
        sizes.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        out, parts = detect_recorded(net, deg, config, threads=10**6)
        assert sizes == want
        assert_same_runs(seq, seq_parts, out, parts)


def test_detect_rejects_bad_thread_count(two_triangles):
    net, deg = two_triangles
    config = DetectConfig(method="dgfm3", n_c=2, k=2, n_runs=2)
    for threads in (0, -2):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            detect(net, deg, config, threads=threads)


def test_detect_reuses_and_truncates_basis(florentine, detect_recorded):
    net, deg = florentine
    config = DetectConfig(method="dgfm3", n_c=3, k=5, gamma=0.6, n_runs=4, seed=1)
    fresh, fresh_parts = detect_recorded(net, deg, config)
    wide = basis_for_method("dgfm3", net, deg, 0.6, 9, rng_seed=1)
    reused, reused_parts = detect_recorded(net, deg, config, basis=wide)
    assert reused.offline_seconds == 0.0
    assert reused.basis.k == 5
    assert_same_runs(fresh, fresh_parts, reused, reused_parts)


def test_detect_rejects_a_basis_of_the_other_method(florentine):
    # each method diffuses in its own operator's eigenvectors; a basis of
    # the other operator would run to a partition without any error
    net, deg = florentine
    for method, other, message in [
        ("mpbtv", "dgfm3", "mpbtv needs a shifted_neg_lk basis, got modularity"),
        ("dgfm3", "mpbtv", "dgfm3 needs a modularity basis, got shifted_neg_lk"),
    ]:
        basis = basis_for_method(other, net, deg, 0.6, 4)
        with pytest.raises(ValueError, match=message):
            detect(net, deg, DetectConfig(method=method, n_c=3, k=4, gamma=0.6), basis=basis)


def test_dgfm3_large_weights_do_not_overflow():
    # leading modularity eigenvalues near 600 overflow exp(dt * eigenvalue)
    # at the default dt = 1 unless the runs shift them
    a = np.zeros((6, 6))
    for u, v in ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)):
        a[u, v] = a[v, u] = 600.0
    net = from_dense_layers([a, a], omega=1.0)
    deg = compute_degrees(net)
    out = detect(net, deg, DetectConfig(method="dgfm3", n_c=2, k=3, n_runs=5, seed=1))
    assert out.basis.eigenvalues[0] > np.log(np.finfo(float).max)
    q_max, _ = oracle_max_modularity(net, deg, 1.0, 2)
    assert out.best.modularity == pytest.approx(q_max, abs=1e-12)


def test_random_init_needs_two_communities():
    with pytest.raises(ValueError, match="^n_c must be >= 2$"):
        random_onehot_init(10, 1, np.random.default_rng(0))


def test_detect_input_validation(florentine, two_triangles):
    net, deg = florentine
    with pytest.raises(ValueError, match="k"):
        detect(net, deg, DetectConfig(method="dgfm3", n_c=3, k=net.nL))
    with pytest.raises(ValueError):
        detect(net, deg, DetectConfig(method="dgfm3", n_c=net.nL + 1, k=5))
    narrow = basis_for_method("dgfm3", net, deg, 1.0, 3)
    with pytest.raises(ValueError, match="columns"):
        detect(net, deg, DetectConfig(method="dgfm3", n_c=3, k=5), basis=narrow)
    other = basis_for_method("dgfm3", *two_triangles, 1.0, 3)
    with pytest.raises(ValueError, match="^basis dimension does not match network$"):
        detect(net, deg, DetectConfig(method="dgfm3", n_c=3, k=3), basis=other)
