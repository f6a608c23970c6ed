"""Acceptance checks: one test and one printed pass/fail line per criterion."""

import os
import time

import numpy as np
import pytest

from mpxmbo import (
    DetectConfig,
    Partition,
    balanced_tv_objective,
    cli,
    compute_degrees,
    detect,
    largest_eigenpairs,
    load_network,
    matched_accuracy,
    modularity_op,
    multiplex_modularity,
    nmi,
    oracle_max_modularity,
    diffusion_step,
    random_onehot_init,
    shifted_neg_lk_op,
)

from conftest import (
    connected_network,
    dense_modularity_value,
    expm,
    full_basis,
    isolate_node,
    multiplex_modularity_sumform,
    random_gamma,
    random_network,
    random_partition,
    to_dense,
)

FLORENTINE = "data/florentine.mpx"
TRIANGLES = "data/two_triangles.mpx"


@pytest.fixture
def announce(capsys):
    def _announce(ok, label, detail=""):
        tail = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"\n{'PASS' if ok else 'FAIL'} {label}{tail}", flush=True)
        assert ok, f"{label}{tail}"

    return _announce


def test_criterion_1_florentine_reproduction(announce):
    net = load_network(FLORENTINE, omega=1.0)
    deg = compute_degrees(net)
    t0 = time.perf_counter()
    best = {}
    for method, k in (("mpbtv", 4), ("dgfm3", 7)):
        config = DetectConfig(
            method=method, n_c=3, k=k, gamma=0.6, dt=1.0, n_runs=50, seed=7
        )
        best[method] = detect(net, deg, config).best.modularity
    elapsed = time.perf_counter() - t0
    ok = best["mpbtv"] >= 0.671 and best["dgfm3"] >= 0.671 and elapsed < 5.0
    announce(
        ok,
        "criterion 1: florentine reproduction",
        f"mpbtv Q={best['mpbtv']:.6f}, dgfm3 Q={best['dgfm3']:.6f}, {elapsed:.2f}s",
    )


def _random_trials(seed, count):
    rng = np.random.default_rng(seed)
    done = 0
    while done < count:
        net = random_network(rng)
        deg = compute_degrees(net)
        if deg.total_strength <= 0:
            continue
        gamma = random_gamma(rng, net.L)
        part = random_partition(rng, net.nL, int(rng.integers(2, 6)))
        yield net, deg, gamma, part
        done += 1


def test_criterion_2_equivalence_identity(announce):
    worst = 0.0
    for net, deg, gamma, part in _random_trials(101, 120):
        q = multiplex_modularity(part, net, deg, gamma)
        tv, balance = balanced_tv_objective(part, net, deg, gamma)
        worst = max(worst, abs(q - (1.0 - (tv + balance) / deg.total_strength)))
    announce(worst <= 1e-10, "criterion 2: equivalence identity", f"120 trials, worst {worst:.2e}")


def test_criterion_3_trace_sum_agreement(announce):
    worst = 0.0
    for net, deg, gamma, part in _random_trials(202, 120):
        q1 = multiplex_modularity(part, net, deg, gamma)
        q2 = multiplex_modularity_sumform(part, net, deg, gamma)
        q3 = dense_modularity_value(part, net, gamma)
        worst = max(worst, abs(q1 - q2), abs(q1 - q3))
    announce(worst <= 1e-10, "criterion 3: trace/sum agreement", f"120 trials, worst {worst:.2e}")


def _cluster_slices(values, tol):
    """Group indices of a descending eigenvalue array into near-equal runs."""
    edges = [0]
    for i in range(1, values.size):
        if values[i - 1] - values[i] > tol:
            edges.append(i)
    edges.append(values.size)
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


def _lanczos_vs_dense(op, k, rng_seed):
    basis = largest_eigenpairs(op, k, tol=1e-10, rng_seed=rng_seed)
    a = to_dense(op)
    vals, vecs = np.linalg.eigh(a)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    scale = max(abs(vals[0]), abs(vals[-1]))
    eig_err = float(np.abs(basis.eigenvalues - vals[:k]).max()) / scale
    sub_err = 0.0
    for block in _cluster_slices(vals, 1e-6 * scale):
        if block.stop > k:
            break  # cluster straddles or lies past the truncation point
        s = np.linalg.svd(
            vecs[:, block].T @ basis.eigenvectors[:, block], compute_uv=False
        )
        sub_err = max(sub_err, float(np.abs(s - 1.0).max()))
    return eig_err, sub_err


def test_criterion_4_spectral_correctness(announce):
    rng = np.random.default_rng(303)
    worst_eig = worst_sub = 0.0
    min_ratio = np.inf  # lambda_min(L+K) / sigma over all trials
    for trial in range(20):
        n = int(rng.integers(10, 67))
        L = int(rng.integers(1, 4))
        net = connected_network(rng, n, L, omega=1.0)
        deg = compute_degrees(net)
        gamma = random_gamma(rng, net.L)
        k = int(rng.integers(3, 9))
        op_s, sigma = shifted_neg_lk_op(net, deg, gamma)
        e1, s1 = _lanczos_vs_dense(op_s, k, trial)
        e2, s2 = _lanczos_vs_dense(modularity_op(net, deg, gamma), k, trial)
        worst_eig = max(worst_eig, e1, e2)
        worst_sub = max(worst_sub, s1, s2)

        lk = sigma * np.eye(net.nL) - to_dense(op_s)  # Laplacian + balance
        lam_min = float(np.linalg.eigvalsh(lk)[0])
        min_ratio = min(min_ratio, lam_min / sigma)
        assert lam_min > 1e-8 * sigma  # connected, no fully isolated node
        lonely = isolate_node(net, node=int(rng.integers(0, n)))
        deg_l = compute_degrees(lonely)
        op_l, sigma_l = shifted_neg_lk_op(lonely, deg_l, gamma)
        gap = sigma_l * np.eye(net.nL) - to_dense(op_l)
        lam_min_planted = float(np.linalg.eigvalsh(gap)[0])
        assert abs(lam_min_planted) <= 1e-10 * sigma_l
        min_ratio = min(min_ratio, lam_min_planted / sigma_l)
    ok = worst_eig <= 1e-8 and worst_sub <= 1e-5 and min_ratio >= -1e-10
    announce(
        ok,
        "criterion 4: spectral correctness",
        f"20 networks, eig err {worst_eig:.2e}, subspace err {worst_sub:.2e}",
    )


def _exponential_cases():
    """(network, gamma, indicator, diffusion times) of criterion 5: ten
    connected networks, then six that alternate a random network (possibly
    disconnected) with a connected one, at one gamma."""
    rng = np.random.default_rng(404)
    for _ in range(10):
        n = int(rng.integers(6, 34))
        L = int(rng.integers(1, 4))
        if n * L > 100:
            n = 100 // L
        net = connected_network(rng, n, L, omega=1.0)
        gamma = random_gamma(rng, net.L)
        yield net, gamma, random_partition(rng, net.nL, 4).one_hot(), (0.5, 1.0)
    rng = np.random.default_rng(55)
    for trial in range(6):
        net = (
            connected_network(rng, int(rng.integers(8, 30)), int(rng.integers(1, 4)))
            if trial % 2
            else random_network(rng, n_max=30)
        )
        u = random_onehot_init(net.nL, 4, rng).one_hot()
        yield net, np.full(net.L, 0.8), u, (0.3, 1.0)


def test_criterion_5_exponential_truncation(announce):
    # with every eigenpair kept, one diffusion step is the exact matrix
    # exponential; the reference is scaling and squaring
    worst = 0.0
    for count, (net, gamma, u, dts) in enumerate(_exponential_cases(), start=1):
        deg = compute_degrees(net)
        op = modularity_op(net, deg, gamma)
        op_s, sigma = shifted_neg_lk_op(net, deg, gamma)
        neg_lk = to_dense(op_s) - sigma * np.eye(net.nL)
        for dt in dts:
            for basis, a in ((full_basis(op), to_dense(op)), (full_basis(op_s, sigma), neg_lk)):
                ref = expm(dt * a) @ u
                worst = max(worst, float(np.abs(diffusion_step(basis, dt, u) - ref).max()))
    announce(
        worst <= 1e-8,
        "criterion 5: k = nL diffusion matches dense exponential",
        f"{count} networks, max entry error {worst:.2e}",
    )


def test_criterion_6_oracle_dominance(announce):
    rng = np.random.default_rng(505)
    done = 0
    margin = -np.inf  # max of detect Q minus oracle Q (should stay <= 0)
    while done < 50:
        net = random_network(rng, n_max=5, l_max=2)
        if net.nL > 10 or net.nL < 3:
            continue
        deg = compute_degrees(net)
        if deg.total_strength <= 0:
            continue
        gamma = float(rng.uniform(0.4, 1.8))
        q_max, _ = oracle_max_modularity(net, deg, gamma, 2)
        method = ("dgfm3", "mpbtv")[done % 2]
        config = DetectConfig(
            method=method, n_c=2, k=min(3, net.nL - 1), gamma=gamma, n_runs=5, seed=done,
        )
        q_best = detect(net, deg, config).best.modularity
        margin = max(margin, q_best - q_max)
        done += 1

    net = load_network(TRIANGLES, omega=0.0)
    deg = compute_degrees(net)
    q_tri = {}
    for method in ("mpbtv", "dgfm3"):
        config = DetectConfig(
            method=method, n_c=2, k=2, gamma=1.0, n_runs=20, seed=1
        )
        q_tri[method] = detect(net, deg, config).best.modularity
    ok = margin <= 1e-12 and q_tri["mpbtv"] == 0.5 and q_tri["dgfm3"] == 0.5
    announce(
        ok,
        "criterion 6: oracle dominance",
        f"50 instances, max excess {margin:.2e}; triangles Q={q_tri['dgfm3']}",
    )


def test_criterion_7_metric_properties(announce):
    rng = np.random.default_rng(606)
    ok = True
    for _ in range(25):
        size = int(rng.integers(4, 40))
        a = random_partition(rng, size, int(rng.integers(2, 6)))
        b = random_partition(rng, size, int(rng.integers(2, 6)))
        ok &= nmi(a, a) == 1.0
        ok &= nmi(a, b) == nmi(b, a)
        perm = rng.permutation(a.n_c) + 1
        relabeled = Partition(perm[a.assignment - 1], a.n_c)
        ok &= nmi(relabeled, b) == nmi(a, b)
    for net, deg, gamma, part in _random_trials(707, 25):
        perm = np.random.default_rng(1).permutation(part.n_c) + 1
        relabeled = Partition(perm[part.assignment - 1], part.n_c)
        ok &= multiplex_modularity(part, net, deg, gamma) == multiplex_modularity(
            relabeled, net, deg, gamma
        )
    acc, matching = matched_accuracy(
        Partition(np.array([1, 1, 2, 3]), 3), Partition(np.array([1, 1, 2, 2]), 2)
    )
    ok &= acc == 0.75 and matching == {1: 1, 2: 2}
    announce(ok, "criterion 7: metric properties hold exactly")


def test_criterion_8_determinism_across_threads(announce, tmp_path, capsys, monkeypatch):
    # four CPUs, so that --threads 4 starts a pool on any host
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    blobs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / f"{name}.tsv"
        rc = cli.main(
            ["detect", "--input", FLORENTINE, "--method", "dgfm3", "--nc", "3",
             "--k", "7", "--gamma", "0.6", "--runs", "12", "--seed", "9",
             "--threads", threads, "--out", str(out)]
        )
        assert rc == 0
        blobs.append(out.read_bytes())
    capsys.readouterr()
    ok = blobs[0] == blobs[1] == blobs[2]
    announce(ok, "criterion 8: byte-identical partitions across reruns and --threads")
