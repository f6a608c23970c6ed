"""Command-line interface.

Subcommands:
    detect    run community detection and write the best partition
    eval      score an existing partition (optionally against truth)
    spectrum  compute a truncated eigendecomposition and report residuals
    oracle    exhaustive search for the maximum-modularity partition
    grid      sweep community counts and basis sizes

`detect --basis-cache` looks the basis up in an npz file stored under one
sha256 key of the problem.  On a miss, `mbo.detect` solves and times the
basis, as it does for a library caller, and the file is rewritten with it.
An output (``--out``, ``--basis-cache``) may not name an input or the
other output.

Exit codes: 0 success, 1 runtime or data errors, 2 usage errors (from
argparse, after its usage line).
"""

from __future__ import annotations

import argparse
import errno
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
    """One number, or comma-separated per-layer numbers."""
    try:
        vals = tuple(float(part) for part in text.split(","))
    except ValueError:
        msg = f"expects a number or comma-separated numbers, got {text!r}"
        raise argparse.ArgumentTypeError(msg) from None
    return vals[0] if len(vals) == 1 else vals


def _range(text):
    """An inclusive low:high range of integers."""
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expects low:high, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects integers, got {text!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


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
    p.add_argument(
        "--eig-tol",
        type=float,
        default=1e-8,
        help="eigensolver residual tolerance; also the cut below which a basis row, "
        "relative to the largest, is unreached and takes community 1",
    )
    p.add_argument("--threads", type=int, default=1, help="worker threads, at most the CPU count")


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
    p.add_argument("--nc-range", type=_range, required=True, help="inclusive range, e.g. 2:5")
    p.add_argument("--k-range", type=_range, required=True, help="inclusive range, e.g. 3:10")
    _add_run_args(p)
    p.add_argument("--out", default=None, help="write a TSV of the sweep")
    p.set_defaults(func=cmd_grid)

    return parser


def _same_file(a, b):
    """Whether two paths name one file: the same inode when both exist."""
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def _load(args):
    # detect and grid pass --threads to mbo.detect; reject it before any work
    if getattr(args, "threads", 1) < 1:
        raise ValueError("threads must be >= 1")
    # an output fails here if it names an input or the other output, or if
    # it cannot be written (with the error opening it would raise after the
    # solve); nothing is read or created
    named = []
    for flag in ("--input", "--coupling", "--truth", "--partition", "--out", "--basis-cache"):
        path = getattr(args, flag[2:].replace("-", "_"), None)
        if not path:
            continue
        if flag in ("--out", "--basis-cache"):
            for other, prior in named:
                if _same_file(path, prior):
                    raise ValueError(f"{flag} and {other} name the same file: {path}")
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            if not os.path.isdir(os.path.dirname(path) or "."):
                raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        named.append((flag, path))
    net = load_network(args.input, args.coupling, args.omega)
    gamma = gamma_vector(args.gamma, net.L)
    return net, compute_degrees(net), gamma


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
    truth = load_labels(args.truth, net) if args.truth else None
    config = _config(args, args.nc, args.k)
    config.check(net)
    basis = key = None
    if args.basis_cache:
        # one sha256 over the exact bytes of every parameter and of the
        # network's canonical arrays and coupling
        h = hashlib.sha256(f"{config.method} {config.k} {config.seed} {net.n} {net.L}".encode())
        h.update(np.float64([config.eig_tol, net.omega]).tobytes() + gamma.tobytes())
        for a in net.intra:
            h.update(a.nnz.to_bytes(8, "little"))
            for arr in (a.rows, a.cols, a.data):
                h.update(arr)  # the loaded arrays are contiguous: no copy
        h.update(net.coupling)
        key = h.hexdigest()
        if os.path.exists(args.basis_cache):
            try:
                basis, stored = load_basis(args.basis_cache)
            except Exception as exc:  # unreadable cache: recompute
                print(f"note: ignoring unreadable basis cache ({exc})", file=sys.stderr)
            else:
                if stored != key or basis.dim != net.nL or basis.k != config.k:
                    note = "note: basis cache does not match parameters; recomputing"
                    print(note, file=sys.stderr)
                    basis = None
    # without a cached basis, detect solves and times it
    result = detect(net, deg, config, basis=basis, threads=args.threads)
    if key and basis is None:
        save_basis(result.basis, args.basis_cache, key)
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
    print(f"offline seconds: {_fmt(result.offline_seconds)}")
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
    t0 = time.perf_counter()
    basis = basis_for_method(
        method, net, deg, gamma, args.k, tol=args.eig_tol, rng_seed=args.seed
    )
    elapsed = time.perf_counter() - t0
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
    (nc_lo, nc_hi), (k_lo, k_hi) = args.nc_range, args.k_range
    # every check on a cell is a bound on n_c or k, so the two corner cells
    # reject a bad range before the solve and before any row is printed
    for n_c, k in ((nc_lo, k_lo), (nc_hi, k_hi)):
        _config(args, n_c, k).check(net)
    # one offline solve at the largest k; smaller cells truncate columns,
    # which is sound because each eigenpair is certified individually
    basis = basis_for_method(
        args.method, net, deg, gamma, k_hi, tol=args.eig_tol, rng_seed=args.seed
    )
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
    except (ConvergenceError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
