"""Workload definitions: what each generates, runs and checks, and why.

A workload turns a seed into input files (through `gen`) and a plan: the
`mpxmbo` argv the benchmark times, an optional set-up argv, and what the
checks need.  Sizes come in two scales: "full" is what BENCHMARK.json
measures, "tiny" is for the smoke test only.
"""

from __future__ import annotations

import os

import gen

# n, L, planted groups, mean degree per layer, share of nodes that switch
# group per layer, share of edges with a uniform partner
SIZES = {
    "full": {
        "cold-dgfm3": dict(n=1000, L=4, groups=16, mean_degree=16, switch=0.05, mix=0.35),
        "warm-mpbtv": dict(n=1500, L=8, groups=24, mean_degree=16, switch=0.05, mix=0.25),
        "eval-io": dict(n=6000, L=4, groups=16, mean_degree=10, switch=0.05, mix=0.35),
        "oracle-exhaustive": dict(n=10, L=2, mean_degree=4000, switch=0.1, mix=0.3),
    },
    "tiny": {
        "cold-dgfm3": dict(n=1000, L=4, groups=4, mean_degree=12, switch=0.05, mix=0.2),
        "warm-mpbtv": dict(n=100, L=8, groups=4, mean_degree=12, switch=0.05, mix=0.2),
        "eval-io": dict(n=300, L=4, groups=4, mean_degree=10, switch=0.05, mix=0.35),
        "oracle-exhaustive": dict(n=6, L=2, mean_degree=2000, switch=0.17, mix=0.3),
    },
}

WARM_GAMMA = "1,1,1,1,1.2,1.2,1.2,1.2"


def _files(work):
    return {
        name: os.path.join(work, name)
        for name in ("net.mpx", "truth.tsv", "coupling.tsv", "eval.tsv", "out.tsv", "basis.npz")
    }


def cold_dgfm3(seed, work, size):
    """detect --method dgfm3 without a cache.

    Why: the offline eigensolve and its operator matvecs do most of the
    work, as in the paper-scale baseline, so eigensolver and operator
    changes show here first.
    """
    p, f = SIZES[size]["cold-dgfm3"], _files(work)
    inst = gen.planted(seed, p["n"], p["L"], p["groups"], p["mean_degree"], p["switch"], p["mix"])
    gen.write_network(inst, f["net.mpx"])
    gen.write_pairs(inst.truth, f["truth.tsv"])
    # k = (groups - 1) * L ends the basis at the gap between the planted
    # eigenvalues (groups - 1 directions times L layer modes) and the bulk,
    # so the eigensolve does the same number of matvecs for every seed
    nc, k = p["groups"], (p["groups"] - 1) * p["L"]
    argv = ["detect", "--input", f["net.mpx"], "--method", "dgfm3", "--nc", str(nc),
            "--k", str(k), "--runs", "20", "--threads", "1", "--seed", str(seed),
            "--truth", f["truth.tsv"], "--out", f["out.tsv"]]  # fmt: skip
    return dict(kind="detect", argv=argv, nc=nc, k=k, eig_tol=1e-8,
                seed=seed, gamma="1", coupling=None, yardstick=True)  # fmt: skip


def warm_mpbtv(seed, work, size):
    """detect --method mpbtv from a basis cache filled during set-up.

    Why: the timed commands bypass the eigensolver, so the runs phase
    (diffusion, threshold, one-hot), modularity, parsing and the cache
    lookup dominate.  The only workload with a coupling file, per-layer
    gamma, L = 8, mpbtv and the run thread pool.
    """
    p, f = SIZES[size]["warm-mpbtv"], _files(work)
    inst = gen.planted(seed, p["n"], p["L"], p["groups"], p["mean_degree"], p["switch"], p["mix"])
    gen.write_network(inst, f["net.mpx"])
    gen.write_pairs(inst.truth, f["truth.tsv"])
    gen.write_chain_coupling(inst.L, f["coupling.tsv"])
    nc = k = p["groups"]
    # omega = 4 lifts the layer-varying modes above the k kept ones; a budget
    # of 6 sweeps per run (most runs converge in 4-6) keeps the runs phase
    # at nearly the same number of sweeps for every seed
    argv = ["detect", "--input", f["net.mpx"], "--coupling", f["coupling.tsv"],
            "--omega", "4", "--gamma", WARM_GAMMA, "--method", "mpbtv", "--nc", str(nc),
            "--k", str(k), "--runs", "30", "--max-iter", "6", "--threads", "2",
            "--seed", str(seed), "--truth", f["truth.tsv"], "--basis-cache", f["basis.npz"],
            "--out", f["out.tsv"]]  # fmt: skip
    return dict(kind="detect", argv=argv, nc=nc, k=k, eig_tol=1e-8,
                seed=seed, gamma=WARM_GAMMA, omega=4.0, coupling=f["coupling.tsv"],
                cache=f["basis.npz"], setup_argv=argv)  # fmt: skip


def eval_io(seed, work, size):
    """eval --truth of the planted partition with 10% of pairs relabelled.

    Why: parsing the network, partition and label files dominates, and the
    eigensolver and mbo are bypassed; the detect workloads write files,
    this one only reads them.
    """
    p, f = SIZES[size]["eval-io"], _files(work)
    inst = gen.planted(seed, p["n"], p["L"], p["groups"], p["mean_degree"], p["switch"], p["mix"])
    gen.write_network(inst, f["net.mpx"])
    gen.write_pairs(inst.truth, f["truth.tsv"])
    gen.write_pairs(gen.relabel(seed + 1, inst.truth, 0.1, p["groups"]), f["eval.tsv"])
    argv = ["eval", "--input", f["net.mpx"], "--partition", f["eval.tsv"],
            "--truth", f["truth.tsv"]]  # fmt: skip
    return dict(kind="eval", argv=argv, partition=f["eval.tsv"],
                gamma="1", coupling=None)  # fmt: skip


def oracle_exhaustive(seed, work, size):
    """oracle --nc 2 on a ten-node, two-layer instance (nL = 20).

    Why: the only path into enumerate_partitions, whose time and memory
    grow with nL.
    """
    p, f = SIZES[size]["oracle-exhaustive"], _files(work)
    # 20000 edge draws per layer on ten nodes, merged into weights close to
    # their expectation (scaled to mean 1), so Q differs little between seeds
    inst = gen.planted(seed, p["n"], p["L"], 2, p["mean_degree"], p["switch"], p["mix"])
    gen.write_weighted_network(inst, f["net.mpx"])
    gen.write_pairs(inst.truth, f["truth.tsv"])
    argv = ["oracle", "--input", f["net.mpx"], "--nc", "2", "--out", f["out.tsv"]]
    # detect on the same instance: the oracle must score at least as well
    rivals = [
        ["detect", "--input", f["net.mpx"], "--method", method, "--nc", "2", "--k", "3",
         "--runs", "20", "--seed", str(seed), "--out", os.path.join(work, f"{method}.tsv")]
        for method in ("dgfm3", "mpbtv")
    ]  # fmt: skip
    return dict(kind="oracle", argv=argv, nc=2, gamma="1", coupling=None,
                truth=f["truth.tsv"], rivals=rivals)  # fmt: skip


WORKLOADS = {
    "cold-dgfm3": cold_dgfm3,
    "warm-mpbtv": warm_mpbtv,
    "eval-io": eval_io,
    "oracle-exhaustive": oracle_exhaustive,
}


def make(name, seed, work, size="full"):
    """Write the inputs of one workload into `work` and return its plan."""
    plan = WORKLOADS[name](seed, work, size)
    plan.update(workload=name, input=os.path.join(work, "net.mpx"), work=work)
    return plan
