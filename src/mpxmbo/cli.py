"""Command-line interface.

Subcommands:
    detect    run community detection and write the best partition
    eval      score an existing partition (optionally against truth)
    spectrum  compute a truncated eigendecomposition and report residuals
    oracle    exhaustive search for the maximum-modularity partition
    grid      sweep community counts and basis sizes

Exit codes: 0 success, 1 runtime or data errors, 2 usage errors.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time

import numpy as np

from . import __version__
from .eigensolver import ConvergenceError, basis_for_method, load_basis, save_basis
from .mbo import DetectConfig, detect
from .metrics import evaluate, oracle_max_modularity
from .network import (
    NetworkFormatError,
    compute_degrees,
    gamma_vector,
    load_labels,
    load_network,
    load_partition,
    save_partition,
)

_G = "%.12g"


def _fmt(x):
    return _G % float(x)


def _gamma_flag(text):
    vals = tuple(float(part) for part in text.split(","))
    return vals[0] if len(vals) == 1 else vals


def _add_network_args(p):
    p.add_argument("--input", required=True, help="multiplex network file")
    p.add_argument("--coupling", default=None, help="layer-coupling file (default: all-to-all)")
    p.add_argument("--omega", type=float, default=1.0, help="inter-layer coupling strength")
    p.add_argument(
        "--gamma",
        type=_gamma_flag,
        default=1.0,
        help="resolution parameter: one value, or comma-separated per-layer values",
    )


def _add_run_args(p):
    p.add_argument("--dt", type=float, default=1.0, help="diffusion time per sweep")
    p.add_argument("--runs", type=int, default=20, help="number of random restarts")
    p.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    p.add_argument("--max-iter", type=int, default=300, help="sweep budget per run")
    p.add_argument("--tol", type=float, default=1e-8, help="stopping tolerance on indicator change")
    p.add_argument("--eig-tol", type=float, default=1e-8, help="eigensolver residual tolerance")
    p.add_argument("--threads", type=int, default=1, help="worker threads for the runs")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mpxmbo",
        description="Community detection in multiplex networks by thresholded diffusion.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="detect communities and write the best partition")
    _add_network_args(p)
    p.add_argument("--method", required=True, choices=("mpbtv", "dgfm3"))
    p.add_argument("--nc", type=int, required=True, help="maximum number of communities")
    p.add_argument("--k", type=int, required=True, help="spectral basis size")
    _add_run_args(p)
    p.add_argument("--out", required=True, help="output partition file")
    p.add_argument("--truth", default=None, help="ground-truth label file for scoring")
    p.add_argument("--basis-cache", default=None, help="npz file to reuse/store the basis")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("eval", help="score an existing partition")
    _add_network_args(p)
    p.add_argument("--partition", required=True, help="partition file to score")
    p.add_argument("--truth", default=None, help="ground-truth label file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("spectrum", help="truncated eigendecomposition of a detection operator")
    _add_network_args(p)
    p.add_argument(
        "--operator",
        required=True,
        choices=("lk", "mod"),
        help="lk: Laplacian + balance, smallest eigenvalues; mod: modularity operator, largest",
    )
    p.add_argument("--k", type=int, required=True, help="number of eigenpairs")
    p.add_argument("--eig-tol", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write 'index eigenvalue residual' lines")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("oracle", help="exhaustive maximum-modularity search (small instances)")
    _add_network_args(p)
    p.add_argument("--nc", type=int, required=True, help="maximum number of communities")
    p.add_argument("--out", default=None, help="write the optimal partition")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("grid", help="sweep community counts and basis sizes")
    _add_network_args(p)
    p.add_argument("--method", required=True, choices=("mpbtv", "dgfm3"))
    p.add_argument("--nc-range", required=True, help="inclusive range, e.g. 2:5")
    p.add_argument("--k-range", required=True, help="inclusive range, e.g. 3:10")
    _add_run_args(p)
    p.add_argument("--out", default=None, help="write a TSV of the sweep")
    p.set_defaults(func=cmd_grid)

    return parser


def _load(args):
    net = load_network(args.input, args.coupling, args.omega)
    gamma = gamma_vector(args.gamma, net.L)
    return net, compute_degrees(net), gamma


def _parse_range(text, flag):
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"{flag} expects low:high, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"{flag} expects integers, got {text!r}") from None
    if lo > hi:
        raise UsageError(f"{flag}: empty range {text!r}")
    return lo, hi


class UsageError(Exception):
    pass


def _basis(net, deg, gamma, method, k, eig_tol, seed, cache=None):
    """The basis of one problem, and the seconds spent computing it.

    With a ``cache`` path, a basis stored there under the same key is
    loaded (0 seconds); otherwise the basis is computed, and stored there
    if a path is given.  The key is one sha256 over the exact bytes of
    every parameter and of the network's canonical arrays and coupling.
    """
    if cache:
        h = hashlib.sha256(f"{method} {k} {seed} {net.n} {net.L}".encode())
        h.update(np.float64([eig_tol, net.omega]).tobytes() + gamma.tobytes())
        for a in net.intra:
            h.update(a.nnz.to_bytes(8, "little"))
            for arr in (a.rows, a.cols, a.data):
                h.update(arr.tobytes())
        h.update(net.coupling.tobytes())
        key = {"key": h.hexdigest()}
        if os.path.exists(cache):
            try:
                basis, meta = load_basis(cache)
            except Exception as exc:  # unreadable cache: recompute
                print(f"note: ignoring unreadable basis cache ({exc})", file=sys.stderr)
            else:
                if meta == key and basis.dim == net.nL and basis.k == k:
                    return basis, 0.0
                print("note: basis cache does not match parameters; recomputing", file=sys.stderr)
    t0 = time.perf_counter()
    basis = basis_for_method(method, net, deg, gamma, k, tol=eig_tol, rng_seed=seed)
    elapsed = time.perf_counter() - t0
    if cache:
        save_basis(basis, cache, key)
    return basis, elapsed


def _print_report(report):
    print(f"modularity: {_fmt(report.modularity)}")
    print(f"communities found: {report.n_communities_detected}")
    if report.accuracy is not None:
        print(f"accuracy: {_fmt(report.accuracy)}")
        print(f"nmi: {_fmt(report.nmi)}")
        pairs = " ".join(f"{d}->{t}" for d, t in sorted(report.matching.items()))
        print(f"matching: {pairs}")


def _config(args, n_c, k):
    """The DetectConfig of detect and grid flags, for one (n_c, k) cell."""
    return DetectConfig(
        method=args.method,
        n_c=n_c,
        k=k,
        gamma=args.gamma,
        dt=args.dt,
        n_runs=args.runs,
        max_iter=args.max_iter,
        tol=args.tol,
        seed=args.seed,
        eig_tol=args.eig_tol,
    )


def cmd_detect(args):
    net, deg, gamma = _load(args)
    config = _config(args, args.nc, args.k)
    config.check(net)
    basis, offline = _basis(
        net, deg, gamma, config.method, config.k, config.eig_tol, config.seed, args.basis_cache
    )
    result = detect(net, deg, config, basis=basis, threads=args.threads)
    truth = load_labels(args.truth, net) if args.truth else None
    report = evaluate(result.best.partition, net, deg, gamma, truth)
    save_partition(result.best.partition, net, args.out)
    print(f"method: {config.method}")
    print(f"runs: {config.n_runs}")
    print(f"best run: {result.best.run_index}")
    print(f"iterations: {result.best.iterations}")
    print(f"converged: {'yes' if result.best.converged else 'no'}")
    _print_report(report)
    per_run = " ".join(_fmt(r.modularity) for r in result.runs)
    print(f"run modularities: {per_run}")
    print(f"offline seconds: {_fmt(offline)}")
    print(f"online seconds: {_fmt(result.online_seconds)}")
    print(f"partition written: {args.out}")
    return 0


def cmd_eval(args):
    net, deg, gamma = _load(args)
    partition = load_partition(args.partition, net)
    truth = load_labels(args.truth, net) if args.truth else None
    report = evaluate(partition, net, deg, gamma, truth)
    _print_report(report)
    return 0


def cmd_spectrum(args):
    net, deg, gamma = _load(args)
    # lk: the mpbtv basis is minus the bottom of Laplacian + balance, so
    # report its negation, ascending; mod: the dgfm3 basis as it is
    method = "mpbtv" if args.operator == "lk" else "dgfm3"
    basis, elapsed = _basis(net, deg, gamma, method, args.k, args.eig_tol, args.seed)
    # 0.0 - x rather than -x, so that an exact zero prints as 0, not -0
    values = 0.0 - basis.eigenvalues if args.operator == "lk" else basis.eigenvalues
    table = "".join(
        f"{i}\t{_fmt(lam)}\t{_fmt(res)}\n"
        for i, (lam, res) in enumerate(zip(values, basis.residuals), start=1)
    )
    print(table, end="")
    print(f"wall seconds: {_fmt(elapsed)}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("# index\teigenvalue\tresidual\n" + table)
    return 0


def cmd_oracle(args):
    net, deg, gamma = _load(args)
    q, part = oracle_max_modularity(net, deg, gamma, args.nc)
    print(f"maximum modularity: {_fmt(q)}")
    print(f"communities found: {part.n_nonempty()}")
    if args.out:
        save_partition(part, net, args.out)
        print(f"partition written: {args.out}")
    return 0


def cmd_grid(args):
    net, deg, gamma = _load(args)
    nc_lo, nc_hi = _parse_range(args.nc_range, "--nc-range")
    k_lo, k_hi = _parse_range(args.k_range, "--k-range")
    # one offline solve at the largest k; smaller cells truncate columns,
    # which is sound because each eigenpair is certified individually
    basis, _ = _basis(net, deg, gamma, args.method, k_hi, args.eig_tol, args.seed)
    rows = ["n_c\tk\tmodularity\n"]
    best = None
    print(rows[0], end="")
    for k in range(k_lo, k_hi + 1):
        for n_c in range(nc_lo, nc_hi + 1):
            config = _config(args, n_c, k)
            result = detect(net, deg, config, basis=basis, threads=args.threads)
            q = result.best.modularity
            rows.append(f"{n_c}\t{k}\t{_fmt(q)}\n")
            print(rows[-1], end="")
            if best is None or q > best[2]:
                best = (n_c, k, q)
    print(f"best: n_c={best[0]} k={best[1]} modularity={_fmt(best[2])}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("".join(rows))
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (NetworkFormatError, ConvergenceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
