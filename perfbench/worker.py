"""Run one workload's mpxmbo commands in this process and report on them.

    python3 worker.py PLAN.json setup
    python3 worker.py PLAN.json measure SECONDS TRACE

`run.py` starts a fresh process for every phase, so the import time and
the peak resident memory read here belong to that phase alone.

`setup` times `import mpxmbo` and then the plan's set-up command, if any
(the cold detect that fills the basis cache).  `measure` repeats the
workload command through `mpxmbo.cli.main(argv)` until SECONDS have
passed.  Without tracing it then runs one traced command to price the
tracing; with tracing it spends half the time untraced and half traced.
Every command's output is checked afterwards, outside the timed region.
The last line of stdout is a JSON object.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

BATCH_S = 3.0


def run_command(cli, argv, tracer=None):
    """One CLI invocation, timed from main() entry to return."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv) if tracer is None else tracer.span("cli.main", cli.main, argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed command, not a failed benchmark
            rc = None
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        wall = time.perf_counter() - t0
    fields = dict(line.split(": ", 1) for line in out.getvalue().splitlines() if ": " in line)
    return {"wall": wall, "rc": rc, "out": fields, "err": err.getvalue()}


def digest(path):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_inputs(plan):
    from mpxmbo import compute_degrees, gamma_vector, load_network

    net = load_network(plan["input"], plan["coupling"], plan.get("omega", 1.0))
    return net, compute_degrees(net), gamma_vector(_gamma(plan["gamma"]), net.L)


def _gamma(text):
    vals = tuple(float(v) for v in text.split(","))
    return vals[0] if len(vals) == 1 else vals


def max_rel_residual(values, vectors, net, deg, gamma, shift):
    """max_i ||A v_i - lambda_i v_i|| / max(max_i |lambda_i|, shift), true residuals.

    ``A`` is the operator the solve ran on: the modularity operator, or the
    shifted operator sigma*I - (Laplacian + balance) when ``shift`` > 0, in
    which case ``values`` are the un-shifted eigenvalues.
    """
    import numpy as np

    from mpxmbo import modularity_op, shifted_neg_lk_op

    if shift:
        op, sigma = shifted_neg_lk_op(net, deg, gamma)
        theta = np.asarray(values) + sigma
    else:
        op, sigma = modularity_op(net, deg, gamma), 0.0
        theta = np.asarray(values)
    resid = np.linalg.norm(op.apply(vectors) - vectors * theta, axis=0)
    return float(resid.max() / max(float(np.abs(theta).max()), sigma))


def eigsh_yardstick(plan, net, deg, gamma):
    """scipy ARPACK on the same operator, k and tolerance as the detect command."""
    import numpy as np
    from scipy.sparse.linalg import LinearOperator, eigsh

    from mpxmbo import modularity_op

    op = modularity_op(net, deg, gamma)
    calls = [0]

    def matvec(x):
        calls[0] += 1
        return op.apply(np.ravel(x))

    lin = LinearOperator((op.dim, op.dim), matvec=matvec, dtype=np.float64)
    v0 = np.random.default_rng(plan["seed"]).standard_normal(op.dim)
    t0 = time.perf_counter()
    vals, vecs = eigsh(lin, k=plan["k"], which="LA", tol=plan["eig_tol"], v0=v0)
    elapsed = time.perf_counter() - t0
    return {
        "eigensolver.eigsh_s": elapsed,
        "eigensolver.eigsh_matvecs": calls[0],
        "eigensolver.eigsh_max_rel_residual": max_rel_residual(vals, vecs, net, deg, gamma, 0.0),
    }


def blas_info():
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                threads = int(fn())
                break
    return {"vendor": blas.get("name"), "version": blas.get("version"), "threads": threads}


def environment():
    import platform
    from importlib import metadata

    import numpy as np

    import mpxmbo

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas_info(),
        "using_numba": bool(mpxmbo.USING_NUMBA),
    }


# ----------------------------------------------------------------------
# checks: each returns the indices of the samples it fails


def check_detect(plan, samples, first_out):
    from mpxmbo import evaluate, load_partition

    failed = set()
    q_text = samples[0]["out"].get("modularity")
    ref = samples[0]["digest"]
    for i, s in enumerate(samples):
        if s["rc"] != 0 or s["digest"] is None or s["digest"] != ref:
            failed.add(i)
        elif s["out"].get("modularity") != q_text:
            failed.add(i)
        elif plan.get("cache") and s["out"].get("offline seconds") != "0":
            failed.add(i)  # a timed warm command missed the basis cache
    with open(first_out, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    net, deg, gamma = load_inputs(plan)
    part = load_partition(first_out, net)
    rescored = "%.12g" % evaluate(part, net, deg, gamma).modularity
    notes = {"lines": len(lines), "rescored_q": rescored, "printed_q": q_text}
    ok = (
        len(lines) == net.nL
        and part.assignment.min() >= 1
        and part.assignment.max() <= plan["nc"]
        and rescored == q_text
    )
    if not ok:
        failed.update(range(len(samples)))
    return failed, notes


def check_eval(plan, samples):
    from mpxmbo import balanced_tv_objective, evaluate, load_partition

    failed = {i for i, s in enumerate(samples) if s["rc"] != 0}
    q_text = samples[0]["out"].get("modularity")
    failed.update(i for i, s in enumerate(samples) if s["out"].get("modularity") != q_text)
    net, deg, gamma = load_inputs(plan)
    part = load_partition(plan["partition"], net)
    tv, balance = balanced_tv_objective(part, net, deg, gamma)
    identity = 1.0 - (tv + balance) / deg.total_strength
    rescored = "%.12g" % evaluate(part, net, deg, gamma).modularity
    ok = q_text is not None and abs(float(q_text) - identity) <= 1e-12 and rescored == q_text
    if not ok:
        failed.update(range(len(samples)))
    return failed, {"identity_q": identity, "rescored_q": rescored, "printed_q": q_text}


def check_oracle(plan, samples, first_out, cli):
    from mpxmbo import evaluate, load_labels, load_partition, nmi

    failed = set()
    q_text = samples[0]["out"].get("maximum modularity")
    ref = samples[0]["digest"]
    for i, s in enumerate(samples):
        if s["rc"] != 0 or s["digest"] != ref or s["out"].get("maximum modularity") != q_text:
            failed.add(i)
    rivals = [run_command(cli, argv) for argv in plan["rivals"]]
    rival_q = [r["out"].get("modularity") for r in rivals]
    net, deg, gamma = load_inputs(plan)
    part = load_partition(first_out, net)
    rescored = "%.12g" % evaluate(part, net, deg, gamma).modularity
    truth_nmi = nmi(part, load_labels(plan["truth"], net))
    ok = (
        q_text is not None
        and all(r["rc"] == 0 and q is not None for r, q in zip(rivals, rival_q))
        and all(float(q_text) >= float(q) - 1e-11 for q in rival_q if q is not None)
        and rescored == q_text
    )
    if not ok:
        failed.update(range(len(samples)))
    notes = {"rescored_q": rescored, "printed_q": q_text, "detect_q": rival_q}
    return failed, notes, truth_nmi


# ----------------------------------------------------------------------


def setup_phase(plan):
    import mpxmbo.cli as cli

    imported = time.perf_counter() - T0
    result = {"import_s": imported, "command_s": 0.0, "ok": True}
    if plan.get("setup_argv"):
        if os.path.exists(plan["cache"]):
            os.remove(plan["cache"])
        rec = run_command(cli, plan["setup_argv"])
        result["command_s"] = rec["wall"]
        result["ok"] = rec["rc"] == 0 and os.path.exists(plan["cache"])
    result["setup_s"] = result["import_s"] + result["command_s"]
    return result


def measure_phase(plan, seconds, trace):
    import mpxmbo
    import mpxmbo.cli as cli
    from spans import Tracer

    tracer = Tracer(mpxmbo)
    out_path = os.path.join(plan["work"], "out.tsv")
    first_out = os.path.join(plan["work"], "first.tsv")
    report = {}
    setup_layers = None
    setup_ok = True
    if trace and plan.get("setup_argv"):
        if os.path.exists(plan["cache"]):
            os.remove(plan["cache"])
        tracer.install()
        rec = run_command(cli, plan["setup_argv"], tracer)
        setup_layers = tracer.command_metrics()
        tracer.uninstall()
        setup_ok = rec["rc"] == 0
        report["setup_wall_s"] = rec["wall"]

    samples = []

    def sample(traced):
        rec = run_command(cli, plan["argv"], tracer if traced else None)
        rec["traced"] = traced
        rec["digest"] = digest(out_path)
        if not samples and rec["digest"] is not None:
            shutil.copyfile(out_path, first_out)
        samples.append(rec)
        return rec

    # commands are grouped in batches of about BATCH_S seconds and wall_s is
    # the median of the batch means: one batch spans several of the short
    # phases in which a shared host runs slower, so the median of the
    # batches moves less than the median of single commands
    batch_s = min(BATCH_S, seconds / 5)
    batches = []
    t_end = time.perf_counter() + (seconds / 2 if trace else seconds)
    while not batches or time.perf_counter() < t_end:
        batch, t_batch = [], time.perf_counter() + batch_s
        while not batch or time.perf_counter() < min(t_batch, t_end):
            batch.append(sample(False)["wall"])
        batches.append(statistics.fmean(batch))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = []
    tracer.install()
    t_end = time.perf_counter() + (seconds / 2 if trace else 0.0)
    while not layers or time.perf_counter() < t_end:
        tracer.reset()
        sample(True)
        layers.append(tracer.command_metrics())
    tracer.uninstall()

    untraced = [s["wall"] for s in samples if not s["traced"]]
    traced = [s["wall"] for s in samples if s["traced"]]
    report["trace_overhead_s"] = statistics.median(traced) - statistics.median(untraced)

    kind = plan["kind"]
    truth_nmi = None
    try:
        if kind == "detect":
            failed, notes = check_detect(plan, samples, first_out)
        elif kind == "eval":
            failed, notes = check_eval(plan, samples)
        else:
            failed, notes, truth_nmi = check_oracle(plan, samples, first_out, cli)
    except (OSError, ValueError) as exc:  # missing or malformed output
        failed, notes = set(range(len(samples))), {"error": f"{type(exc).__name__}: {exc}"}
    if not setup_ok:
        failed.update(range(len(samples)))

    q_key = "maximum modularity" if kind == "oracle" else "modularity"
    first = samples[0]["out"]
    report.update(
        batch_means=batches,
        walls=untraced,
        traced_walls=traced,
        rc=[s["rc"] for s in samples],
        errors=sorted({s["err"].strip() for s in samples if s["err"].strip()})[:5],
        checks=notes,
        failed_samples=sorted(failed),
        peak_rss_mb=peak_rss_mb,
        modularity=float(first[q_key]) if q_key in first else None,
        nmi=truth_nmi if kind == "oracle" else (float(first["nmi"]) if "nmi" in first else None),
        environment=environment(),
        attempted=len(samples),
        failed=len(failed),
    )
    lookups = [s for s in samples if plan.get("cache")]
    hits = sum(1 for s in lookups if s["out"].get("offline seconds") == "0")
    report["cache_hits"] = hits / len(lookups) if lookups else 0.0
    if trace:
        report["layers"] = per_layer(plan, tracer, layers, setup_layers, report)
    return report


def per_layer(plan, tracer, layers, setup_layers, report):
    """Median over the traced commands of each per-layer number."""
    out = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
    # the set-up solve of warm-mpbtv is what its setup_s pays for
    setup_layers = setup_layers or {}
    out["eigensolver.setup_solve_s"] = setup_layers.get("eigensolver.solve_s", 0.0)
    out["operators.setup_matvecs"] = setup_layers.get("operators.matvecs", 0)
    out["cli.cache_hits"] = report["cache_hits"]
    out["eigensolver.max_rel_residual"] = 0.0
    out.update({"eigensolver.eigsh_s": 0.0, "eigensolver.eigsh_matvecs": 0,
                "eigensolver.eigsh_max_rel_residual": 0.0})  # fmt: skip
    basis = tracer.last_basis
    if basis is not None:
        net, deg, gamma = load_inputs(plan)
        out["eigensolver.max_rel_residual"] = max_rel_residual(
            basis.eigenvalues, basis.eigenvectors, net, deg, gamma, basis.shift
        )
        if plan.get("yardstick"):
            out.update(eigsh_yardstick(plan, net, deg, gamma))
    return out


def main(argv):
    with open(argv[0], encoding="utf-8") as fh:
        plan = json.load(fh)
    if argv[1] == "setup":
        result = setup_phase(plan)
    else:
        result = measure_phase(plan, float(argv[2]), argv[3] == "1")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
