"""End-to-end command-line behavior, run in process."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mpxmbo import cli, load_basis, load_network, mbo

from conftest import (
    planted_network,
    readme_command_line,
    readme_section,
    save_network,
    toarray,
)

FLORENTINE = "data/florentine.mpx"
TRIANGLES = "data/two_triangles.mpx"


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_fresh(argvs, **env):
    """Run ``cli.main`` on each argv in one fresh interpreter, with ``env``
    added to its environment: each call's stdout, and every module the
    process imported."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import contextlib, io, json, sys\n"
        "from mpxmbo import cli\n"
        "outs = []\n"
        "for a in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        assert cli.main(a) == 0, a\n"
        "    outs.append(out.getvalue())\n"
        "print(json.dumps([outs, [k for k, m in sys.modules.items() if m is not None]]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argvs)],
        env=env, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def get_field(out, name):
    for line in out.splitlines():
        if line.startswith(name + ":"):
            return line.split(":", 1)[1].strip()
    raise AssertionError(f"no '{name}' line in output:\n{out}")


def test_detect_florentine_summary(capsys, tmp_path):
    out_file = tmp_path / "part.tsv"
    rc, out, _ = run_cli(
        capsys,
        "detect", "--input", FLORENTINE, "--method", "mpbtv", "--nc", "3",
        "--k", "4", "--gamma", "0.6", "--omega", "1", "--dt", "1",
        "--runs", "50", "--seed", "7", "--out", str(out_file),
    )
    assert rc == 0
    q = float(get_field(out, "modularity"))
    assert q >= 0.671
    assert get_field(out, "method") == "mpbtv"
    assert get_field(out, "runs") == "50"
    assert get_field(out, "converged") == "yes"
    per_run = get_field(out, "run modularities").split()
    assert len(per_run) == 50
    assert max(float(v) for v in per_run) == q
    assert float(get_field(out, "offline seconds")) >= 0
    assert float(get_field(out, "online seconds")) >= 0
    lines = out_file.read_text().splitlines()
    assert len(lines) == 34
    assert all(re.fullmatch(r"\d+\t\d+\t\d+", line) for line in lines)
    # every reported value carries 12 significant digits
    assert re.fullmatch(r"0\.\d{12}", get_field(out, "modularity"))


def test_detect_missing_required_flag(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(
            ["detect", "--input", FLORENTINE, "--method", "mpbtv",
             "--k", "4", "--out", "/tmp/x.tsv"]
        )
    assert info.value.code == 2


def test_detect_missing_input_file(capsys, tmp_path):
    rc, _, err = run_cli(
        capsys,
        "detect", "--input", str(tmp_path / "nope.mpx"), "--method", "mpbtv",
        "--nc", "3", "--k", "4", "--out", str(tmp_path / "p.tsv"),
    )
    assert rc == 1
    assert "error:" in err


def test_gamma_flag_forms(capsys, tmp_path):
    base = [
        "detect", "--input", FLORENTINE, "--method", "dgfm3", "--nc", "3",
        "--k", "7", "--runs", "2", "--seed", "0",
    ]
    rc, out_a, _ = run_cli(capsys, *base, "--gamma", "0.6", "--out", str(tmp_path / "a.tsv"))
    rc_b, out_b, _ = run_cli(
        capsys, *base, "--gamma", "0.6,0.6", "--out", str(tmp_path / "b.tsv")
    )
    assert rc == rc_b == 0
    assert get_field(out_a, "modularity") == get_field(out_b, "modularity")
    rc, _, err = run_cli(
        capsys, *base, "--gamma", "0.6,0.6,0.6", "--out", str(tmp_path / "c.tsv")
    )
    assert rc == 1  # three values for a two-layer network
    with pytest.raises(SystemExit) as info:
        cli.main(base + ["--gamma", "0.6,oops", "--out", str(tmp_path / "d.tsv")])
    assert info.value.code == 2


@pytest.mark.parametrize("gamma", ["0.6,", "a"])
def test_malformed_gamma_is_a_usage_error(capsys, tmp_path, gamma):
    with pytest.raises(SystemExit) as info:
        cli.main(
            ["eval", "--input", FLORENTINE, "--partition", str(tmp_path / "p.tsv"),
             "--gamma", gamma]
        )  # fmt: skip
    stdout, err = capsys.readouterr()
    assert (info.value.code, stdout) == (2, "")
    assert err.startswith("usage: mpxmbo eval")
    text = f"expects a number or comma-separated numbers, got {gamma!r}"
    assert err.endswith(f"mpxmbo eval: error: argument --gamma: {text}\n")


def test_eval_reproduces_detect_q(capsys, tmp_path):
    out_file = tmp_path / "part.tsv"
    _, out_detect, _ = run_cli(
        capsys,
        "detect", "--input", FLORENTINE, "--method", "dgfm3", "--nc", "3",
        "--k", "7", "--gamma", "0.6", "--runs", "10", "--seed", "1",
        "--out", str(out_file),
    )
    rc, out_eval, _ = run_cli(
        capsys,
        "eval", "--input", FLORENTINE, "--gamma", "0.6",
        "--partition", str(out_file),
    )
    assert rc == 0
    assert get_field(out_eval, "modularity") == get_field(out_detect, "modularity")
    assert "accuracy" not in out_eval


def test_eval_against_truth(capsys, tmp_path):
    part_file = tmp_path / "part.tsv"
    run_cli(
        capsys,
        "detect", "--input", FLORENTINE, "--method", "dgfm3", "--nc", "3",
        "--k", "7", "--gamma", "0.6", "--runs", "10", "--seed", "1",
        "--out", str(part_file),
    )
    rc, out, _ = run_cli(
        capsys,
        "eval", "--input", FLORENTINE, "--gamma", "0.6",
        "--partition", str(part_file), "--truth", str(part_file),
    )
    assert rc == 0
    assert float(get_field(out, "accuracy")) == 1.0
    assert float(get_field(out, "nmi")) == 1.0
    assert re.fullmatch(r"(\d+->\d+)( \d+->\d+)*", get_field(out, "matching"))


def test_eval_truth_shuffle_invariant(capsys, tmp_path):
    part_file = tmp_path / "part.tsv"
    run_cli(
        capsys,
        "detect", "--input", FLORENTINE, "--method", "mpbtv", "--nc", "3",
        "--k", "4", "--gamma", "0.6", "--runs", "10", "--seed", "4",
        "--out", str(part_file),
    )
    rows = [line.split("\t") for line in part_file.read_text().splitlines()]
    shuffle = {"1": "3", "2": "1", "3": "2"}
    shuffled = tmp_path / "truth.tsv"
    shuffled.write_text(
        "".join(f"{node}\t{layer}\t{shuffle[comm]}\n" for node, layer, comm in rows)
    )
    results = []
    for truth in (part_file, shuffled):
        _, out, _ = run_cli(
            capsys,
            "eval", "--input", FLORENTINE, "--gamma", "0.6",
            "--partition", str(part_file), "--truth", str(truth),
        )
        results.append((get_field(out, "accuracy"), get_field(out, "nmi")))
    assert results[0] == results[1]


def test_spectrum_lk_positive_on_connected(capsys, tmp_path):
    # no node is isolated in every layer, so Laplacian + balance is
    # positive definite and every reported eigenvalue must be > 0
    net_file = tmp_path / "ring.mpx"
    lines = ["#multiplex n=3 L=1"]
    for a, b in ((1, 2), (2, 3), (1, 3)):
        lines.append(f"1\t{a}\t{b}\t1.0")
    net_file.write_text("\n".join(lines) + "\n")
    rc, out, _ = run_cli(
        capsys, "spectrum", "--input", net_file.as_posix(), "--omega", "0",
        "--operator", "lk", "--k", "2",
    )
    assert rc == 0
    rows = [line.split("\t") for line in out.splitlines() if "\t" in line]
    assert len(rows) == 2
    values = [float(r[1]) for r in rows]
    assert all(v > 1e-8 for v in values)
    assert values == sorted(values)


def test_spectrum_matches_dense_and_writes_file(capsys, tmp_path):
    out_file = tmp_path / "eigs.tsv"
    rc, out, _ = run_cli(
        capsys,
        "spectrum", "--input", TRIANGLES, "--omega", "0", "--operator", "mod",
        "--k", "5", "--out", str(out_file),
    )
    assert rc == 0
    got = [float(line.split("\t")[1]) for line in out.splitlines() if "\t" in line]
    net = load_network(TRIANGLES, omega=0.0)
    a = toarray(net.intra[0])
    d = a.sum(axis=1)
    m = a - np.outer(d, d) / d.sum()
    ref = np.linalg.eigvalsh(m)[::-1][:5]
    assert np.abs(np.array(got) - ref).max() <= 1e-8
    file_rows = out_file.read_text().splitlines()
    assert file_rows[0].startswith("# index")
    assert len(file_rows) == 6


@pytest.mark.parametrize(
    "command",
    [
        ["spectrum", "--operator", "lk", "--k", "3"],
        ["spectrum", "--operator", "mod", "--k", "3"],
        ["grid", "--method", "mpbtv", "--nc-range", "2:3", "--k-range", "3:4"],
    ],
)
@pytest.mark.parametrize("eig_tol", ["0", "-1e-8", "nan"])
def test_non_positive_eig_tol_rejected_before_solving(capsys, command, eig_tol):
    rc, out, err = run_cli(capsys, *command, "--input", FLORENTINE, f"--eig-tol={eig_tol}")
    assert (rc, err) == (1, "error: tolerances must be positive\n")
    assert "\t" not in out


def test_bad_truth_file_fails_before_the_solve(capsys, tmp_path):
    # detect reads --truth right after the network, so a malformed truth
    # file ends it before the basis cache or the partition is written
    truth = tmp_path / "truth.tsv"
    truth.write_text("1\ta\n2\n3\tb\n", encoding="utf-8")
    cache, part = tmp_path / "basis.npz", tmp_path / "p.tsv"
    rc, out, err = run_cli(
        capsys,
        "detect", "--input", FLORENTINE, "--method", "dgfm3", "--nc", "3", "--k", "4",
        "--truth", str(truth), "--basis-cache", str(cache), "--out", str(part),
    )
    assert (rc, out) == (1, "")
    assert err == f"error: {truth}: line 2: expected 'node label' or 'node layer label'\n"
    assert not cache.exists() and not part.exists()


def test_bytes_not_utf8_end_with_path_and_line(capsys, tmp_path):
    net = tmp_path / "net.mpx"
    net.write_bytes(b"#multiplex n=2 L=1\n1\t1\t2\n1\t1\t\xff\n")
    rc, out, err = run_cli(capsys, "eval", "--input", str(net), "--partition", str(net))
    assert (rc, out) == (1, "")
    assert err == (f"error: {net}: line 3: 'utf-8' codec can't decode byte 0xff "
                   "in position 29: invalid start byte\n")  # fmt: skip


@pytest.mark.parametrize(
    "flag, name, message",
    [
        ("--basis-cache", "somedir", "[Errno 21] Is a directory"),
        ("--out", "nodir/p.tsv", "[Errno 2] No such file or directory"),
    ],
)
def test_unwritable_output_fails_before_the_solve(
    capsys, tmp_path, monkeypatch, flag, name, message
):
    # a basis cache or partition that cannot be written ends detect with
    # the error opening it gives, before the solve and before any output
    (tmp_path / "somedir").mkdir()
    monkeypatch.setattr(mbo, "basis_for_method", lambda *a, **k: pytest.fail("solve ran"))
    paths = {"--basis-cache": tmp_path / "basis.npz", "--out": tmp_path / "p.tsv"}
    paths[flag] = tmp_path / name
    rc, out, err = run_cli(
        capsys,
        "detect", "--input", FLORENTINE, "--method", "dgfm3", "--nc", "3", "--k", "4",
        "--basis-cache", str(paths["--basis-cache"]), "--out", str(paths["--out"]),
    )  # fmt: skip
    assert (rc, out) == (1, "")
    assert err == f"error: {message}: '{tmp_path / name}'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["somedir"]
    assert not any((tmp_path / "somedir").iterdir())


DETECT = ["detect", "--input", "net.mpx", "--method", "dgfm3", "--nc", "3", "--k", "4"]


@pytest.mark.parametrize(
    "argv, output, other, path",
    [
        (DETECT + ["--out", "p.tsv", "--basis-cache", "net.mpx"],
         "--basis-cache", "--input", "net.mpx"),
        (DETECT + ["--out", "net.mpx"], "--out", "--input", "net.mpx"),
        (DETECT + ["--out", "hard.mpx"], "--out", "--input", "hard.mpx"),
        (DETECT + ["--truth", "t.tsv", "--out", "./t.tsv"], "--out", "--truth", "./t.tsv"),
        (DETECT + ["--out", "b.npz", "--basis-cache", "sub/../b.npz"],
         "--basis-cache", "--out", "sub/../b.npz"),
        (["spectrum", "--input", "net.mpx", "--operator", "mod", "--k", "4", "--out", "net.mpx"],
         "--out", "--input", "net.mpx"),
        (["oracle", "--input", "net.mpx", "--coupling", "c.tsv", "--nc", "2", "--out", "c.tsv"],
         "--out", "--coupling", "c.tsv"),
        (["grid", "--input", "net.mpx", "--method", "dgfm3", "--nc-range", "2:3",
          "--k-range", "3:4", "--out", "net.mpx"], "--out", "--input", "net.mpx"),
    ],
)  # fmt: skip
def test_output_naming_an_input_fails_before_reading(
    capsys, tmp_path, monkeypatch, argv, output, other, path
):
    # an output that names an input (a hard link or another spelling
    # included) or the other output would replace it: the command ends
    # before it reads the network, and no file is written or changed
    (tmp_path / "net.mpx").write_bytes(Path(FLORENTINE).read_bytes())
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "load_network", lambda *a, **k: pytest.fail("network read"))
    os.link(tmp_path / "net.mpx", tmp_path / "hard.mpx")
    (tmp_path / "t.tsv").write_text("1\t1\n", encoding="utf-8")
    (tmp_path / "c.tsv").write_text("1\t2\t0.5\n", encoding="utf-8")
    (tmp_path / "sub").mkdir()
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (1, "")
    assert err == f"error: {output} and {other} name the same file: {path}\n"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


def test_detect_solves_once_on_a_miss_and_never_on_a_hit(capsys, tmp_path, monkeypatch):
    # a CLI detect solves inside mbo.detect, once, on a cache miss; the file
    # it writes holds the bytes of the basis detect used; a hit never solves
    solves, results = [], []
    solve, detect = mbo.basis_for_method, cli.detect

    def counted_solve(*args, **kwargs):
        solves.append(args[0])
        return solve(*args, **kwargs)

    def kept_detect(*args, **kwargs):
        results.append(detect(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(mbo, "basis_for_method", counted_solve)
    monkeypatch.setattr(cli, "detect", kept_detect)
    cache = tmp_path / "basis.npz"
    base = [
        "detect", "--input", FLORENTINE, "--method", "mpbtv", "--nc", "3", "--k", "4",
        "--gamma", "0.6", "--runs", "3", "--basis-cache", str(cache),
        "--out", str(tmp_path / "p.tsv"),
    ]  # fmt: skip
    rc, out, err = run_cli(capsys, *base)
    assert (rc, err, solves) == (0, "", ["mpbtv"])
    assert get_field(out, "offline seconds") == cli._fmt(results[0].offline_seconds)
    loaded, _ = load_basis(cache)
    for name in ("eigenvalues", "eigenvectors", "residuals"):
        assert getattr(loaded, name).tobytes() == getattr(results[0].basis, name).tobytes()
    rc, out, err = run_cli(capsys, *base)
    assert (rc, err, solves) == (0, "", ["mpbtv"])
    assert get_field(out, "offline seconds") == "0"


def test_basis_cache_of_the_old_form_is_recomputed_once(capsys, tmp_path):
    # a cache whose key sits in the metadata entry of earlier versions is
    # recomputed with the mismatch note, then rewritten and reused
    cache = tmp_path / "basis.npz"
    base = [
        "detect", "--input", FLORENTINE, "--method", "dgfm3", "--nc", "3", "--k", "4",
        "--runs", "3", "--basis-cache", str(cache), "--out", str(tmp_path / "p.tsv"),
    ]  # fmt: skip
    assert run_cli(capsys, *base)[0] == 0
    with np.load(cache) as npz:
        arrays = {name: npz[name] for name in npz.files}
    arrays["meta_key"] = arrays.pop("key")
    with open(cache, "wb") as fh:
        np.savez(fh, **arrays)
    rc, out, err = run_cli(capsys, *base)
    assert (rc, err) == (0, "note: basis cache does not match parameters; recomputing\n")
    assert get_field(out, "offline seconds") != "0"
    rc, out, err = run_cli(capsys, *base)
    assert (rc, err) == (0, "")
    assert get_field(out, "offline seconds") == "0"


def test_basis_cache_path_without_npz_suffix(capsys, tmp_path):
    # the cache is written to exactly the given path, so the second run
    # finds it even without an .npz suffix
    cache = tmp_path / "basis"
    base = [
        "detect", "--input", FLORENTINE, "--method", "mpbtv", "--nc", "3", "--k", "5",
        "--runs", "3", "--basis-cache", str(cache), "--out", str(tmp_path / "p.tsv"),
    ]
    rc, _, _ = run_cli(capsys, *base)
    assert rc == 0 and cache.exists()
    rc, out, err = run_cli(capsys, *base)
    assert rc == 0
    assert get_field(out, "offline seconds") == "0"
    assert err == ""


def test_unreadable_basis_cache_is_recomputed(capsys, tmp_path):
    # bytes that are not an npz are noted and overwritten, and the basis
    # stored in their place is loaded by the next run
    cache = tmp_path / "basis.npz"
    cache.write_bytes(b"not an npz archive")
    base = [
        "detect", "--input", FLORENTINE, "--method", "dgfm3", "--nc", "3", "--k", "4",
        "--runs", "3", "--basis-cache", str(cache), "--out", str(tmp_path / "p.tsv"),
    ]
    rc, out, err = run_cli(capsys, *base)
    assert rc == 0
    assert "note: ignoring unreadable basis cache (" in err
    assert cache.read_bytes()[:2] == b"PK"
    rc, out, err = run_cli(capsys, *base)
    assert (rc, err) == (0, "")
    assert get_field(out, "offline seconds") == "0"


def test_basis_cache_keyed_on_edges(capsys, tmp_path):
    # same n, L and total strength, different edges: the cached basis of
    # the first network must not be reused for the second
    header = "#multiplex n=6 L=2\n"
    ring = [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4), (3, 4)]
    rewired = [(1, 2), (2, 4), (4, 1), (3, 5), (5, 6), (6, 3), (1, 6)]
    nets = {}
    for name, edges in (("a", ring), ("b", rewired)):
        lines = [f"{l}\t{u}\t{v}\n" for l in (1, 2) for u, v in edges]
        nets[name] = tmp_path / f"{name}.mpx"
        nets[name].write_text(header + "".join(lines))
    cache = tmp_path / "basis.npz"
    base = [
        "detect", "--method", "mpbtv", "--nc", "2", "--k", "3",
        "--runs", "5", "--seed", "1",
    ]
    rc, _, _ = run_cli(
        capsys, *base, "--input", str(nets["a"]), "--basis-cache", str(cache),
        "--out", str(tmp_path / "a.tsv"),
    )
    assert rc == 0
    rc, out_cached, err = run_cli(
        capsys, *base, "--input", str(nets["b"]), "--basis-cache", str(cache),
        "--out", str(tmp_path / "b_cached.tsv"),
    )
    assert rc == 0
    assert "recomputing" in err
    rc, out_fresh, _ = run_cli(
        capsys, *base, "--input", str(nets["b"]), "--out", str(tmp_path / "b_fresh.tsv"),
    )
    assert rc == 0
    assert get_field(out_cached, "modularity") == get_field(out_fresh, "modularity")
    assert (tmp_path / "b_cached.tsv").read_bytes() == (tmp_path / "b_fresh.tsv").read_bytes()


def test_basis_cache_key_hashes_the_array_bytes(capsys, tmp_path):
    # the key is the sha256 of the parameters and of each array's bytes in
    # C order, the digest that arr.tobytes() gives, so stored caches stay valid
    cache = tmp_path / "basis.npz"
    rc, _, _ = run_cli(
        capsys, "detect", "--input", FLORENTINE, "--method", "mpbtv", "--nc", "3",
        "--k", "5", "--runs", "2", "--seed", "4", "--omega", "0.5", "--gamma", "0.6,0.8",
        "--basis-cache", str(cache), "--out", str(tmp_path / "p.tsv"),
    )
    assert rc == 0
    net = load_network(FLORENTINE, omega=0.5)
    h = hashlib.sha256(f"mpbtv 5 4 {net.n} {net.L}".encode())
    h.update(np.float64([1e-8, 0.5]).tobytes() + np.float64([0.6, 0.8]).tobytes())
    for a in net.intra:
        h.update(a.nnz.to_bytes(8, "little"))
        for arr in (a.rows, a.cols, a.data):
            h.update(arr.tobytes())
    h.update(net.coupling.tobytes())
    assert load_basis(cache)[1] == h.hexdigest()


@pytest.mark.parametrize(
    "flag, first, second",
    [
        ("--omega", "1", "1.0000000000001"),
        ("--gamma", "0.6", "0.6000000000001"),
        ("--eig-tol", "1e-8", "1.0000000000001e-8"),
        ("--k", "5", "4"),
    ],
)
def test_basis_cache_keyed_on_exact_parameters(capsys, tmp_path, flag, first, second):
    # the float values agree to 12 significant digits, so a key built from
    # "%.12g" text would reuse the first basis for the second problem; a
    # cached basis of larger k is recomputed, not truncated (the row's flag
    # follows base's --k, and argparse keeps the last value)
    cache = tmp_path / "basis.npz"
    base = [
        "detect", "--input", FLORENTINE, "--method", "mpbtv", "--nc", "3", "--k", "5",
        "--runs", "4", "--seed", "1",
    ]
    rc, _, _ = run_cli(
        capsys, *base, flag, first, "--basis-cache", str(cache), "--out", str(tmp_path / "a.tsv")
    )
    assert rc == 0 and cache.exists()
    rc, out, err = run_cli(
        capsys, *base, flag, second, "--basis-cache", str(cache), "--out", str(tmp_path / "b.tsv")
    )
    assert rc == 0
    assert "recomputing" in err
    assert get_field(out, "offline seconds") != "0"
    rc, _, _ = run_cli(capsys, *base, flag, second, "--out", str(tmp_path / "cold.tsv"))
    assert rc == 0
    assert (tmp_path / "b.tsv").read_bytes() == (tmp_path / "cold.tsv").read_bytes()


def overflow_network(tmp_path, weight):
    """Three nodes on a path whose two edges weigh ``weight``."""
    net = tmp_path / "big.mpx"
    net.write_text(f"#multiplex n=3 L=1\n1\t1\t2\t{weight}\n1\t2\t3\t{weight}\n")
    return net


@pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning",
    "ignore:invalid value encountered:RuntimeWarning",
)
@pytest.mark.parametrize("weight, value", [("1e308", "nan"), ("1e200", "-inf")])
@pytest.mark.parametrize("command", ["eval", "oracle"])
def test_non_finite_modularity_is_an_error(capsys, tmp_path, command, weight, value):
    # the degrees (1e308) or the squared community volumes (1e200) overflow
    net = overflow_network(tmp_path, weight)
    part = tmp_path / "p.tsv"
    part.write_text("1\t1\t1\n2\t1\t1\n3\t1\t2\n")
    flags = ["--partition", str(part)] if command == "eval" else ["--nc", "2"]
    rc, out, err = run_cli(capsys, command, "--input", str(net), *flags)
    assert (rc, out) == (1, "")
    assert err == f"error: modularity is not finite ({value}): the weights overflow float64\n"


@pytest.mark.parametrize("weight, degree", [("1e308", "inf"), ("1e200", "2e+200")])
@pytest.mark.parametrize(
    "command",
    [
        ["detect", "--method", "dgfm3", "--nc", "2", "--k", "2"],
        ["detect", "--method", "mpbtv", "--nc", "2", "--k", "2"],
        ["spectrum", "--operator", "lk", "--k", "2"],
        ["grid", "--method", "dgfm3", "--nc-range", "2:2", "--k-range", "2:2"],
    ],
)
def test_overflowing_weights_rejected_before_solving(capsys, tmp_path, command, weight, degree):
    # the eigensolver's norms would square the degree (inf or 4e400) and end
    # in a residual or convergence failure that does not name the cause
    net = overflow_network(tmp_path, weight)
    if command[0] == "detect":
        command = [*command, "--out", str(tmp_path / "p.tsv")]
    rc, out, err = run_cli(capsys, *command, "--input", str(net))
    assert (rc, out) == (1, "")
    assert err == f"error: the weights overflow float64: degree {degree} squared is not finite\n"


def test_partitions_stable_across_blas_threads(tmp_path):
    # the determinism contract: BLAS threads may move basis bits by rounding,
    # but partitions stay byte-identical; one process per thread setting
    # runs every case
    planted = tmp_path / "planted.mpx"
    save_network(planted_network(np.random.default_rng(3), 400, 2, 4), planted)
    cases = [
        (FLORENTINE, "3", "4"),
        (TRIANGLES, "2", "2"),
        (str(planted), "4", "6"),
    ]
    # README "Library"'s dgfm3 example: four node-layer pairs lie outside its
    # top 7 eigenvectors and take community 1 by rule, not by how the BLAS
    # rounds, so it reaches the modularity README "Command line" states
    assert 'DetectConfig(method="dgfm3", n_c=3, k=7, gamma=0.6, n_runs=50, seed=7)' in (
        readme_section("Library")
    )
    library = ["--method", "dgfm3", "--nc", "3", "--k", "7", "--gamma", "0.6",
               "--runs", "50", "--seed", "7"]  # fmt: skip
    blobs = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        argvs = [
            ["detect", "--input", path, "--method", method, "--nc", nc, "--k", k,
             "--runs", "6", "--seed", "2", "--out", str(out / f"{method}-{i}.tsv")]
            for i, (path, nc, k) in enumerate(cases)
            for method in ("mpbtv", "dgfm3")
        ]  # fmt: skip
        argvs.append(["detect", "--input", FLORENTINE, *library, "--out", str(out / "readme.tsv")])
        outs, _ = run_fresh(argvs, OPENBLAS_NUM_THREADS=threads)
        assert get_field(outs[-1], "modularity") == readme_command_line()[1]
        blobs[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert len(blobs["1"]) == 7
    assert blobs["1"] == blobs["2"]


def test_command_line_never_imports_scipy(tmp_path):
    # scipy is a test extra only; with it installed, each subcommand runs in
    # one fresh process, so an import that would be allowed to fail still shows
    part, cache = str(tmp_path / "part.tsv"), str(tmp_path / "basis.npz")
    florentine = ["--input", FLORENTINE, "--nc", "3", "--k", "4"]
    _, modules = run_fresh([
        ["detect", *florentine, "--method", "dgfm3", "--out", part],
        ["detect", *florentine, "--method", "mpbtv", "--basis-cache", cache,
         "--out", str(tmp_path / "mp.tsv")],
        ["eval", "--input", FLORENTINE, "--partition", part, "--truth", part],
        ["spectrum", "--input", FLORENTINE, "--operator", "lk", "--k", "4"],
        ["oracle", "--input", TRIANGLES, "--nc", "2"],
        ["grid", "--input", FLORENTINE, "--method", "dgfm3", "--nc-range", "2:3",
         "--k-range", "3:4", "--runs", "2"],
    ])  # fmt: skip
    assert "mpxmbo.cli" in modules
    assert not [m for m in modules if m == "scipy" or m.startswith("scipy.")]


def test_oracle_two_triangles(capsys, tmp_path):
    out_file = tmp_path / "opt.tsv"
    rc, out, _ = run_cli(
        capsys,
        "oracle", "--input", TRIANGLES, "--omega", "0", "--nc", "2",
        "--out", str(out_file),
    )
    assert rc == 0
    assert get_field(out, "maximum modularity") == "0.5"
    assert get_field(out, "communities found") == "2"
    labels = [line.split("\t")[2] for line in out_file.read_text().splitlines()]
    assert labels[:3] != labels[3:] and len(set(labels[:3])) == 1


def _random_multiplex(path, n, L, draws, seed):
    # `draws` random edge lines per layer: repeats are summed on load, and
    # self-loops are left out
    e = np.random.default_rng(seed).integers(1, n + 1, (L, draws, 2))
    lines = [f"{i + 1} {u} {v}\n" for i in range(L) for u, v in e[i] if u != v]
    path.write_text(f"#multiplex n={n} L={L}\n" + "".join(lines), encoding="utf-8")


@pytest.mark.parametrize(
    "network, nc, flags",
    [
        ((9, 2, 14, 3), "2", ["--omega", "0.5"]),
        ((23, 1, 40, 4), "2", []),  # nL = 23, the --nc 2 limit: 1024 prefixes
        ((7, 2, 12, 5), "3", ["--omega", "0.5"]),
        (None, "3", ["--gamma", "0.6"]),  # two triangles
    ],
    ids=["nine", "limit", "seven", "triangles"],
)
def test_oracle_partition_scores_its_maximum_under_eval(capsys, tmp_path, network, nc, flags):
    # eval of the partition the oracle writes prints the modularity the
    # oracle printed, digit for digit
    path, part = TRIANGLES, str(tmp_path / "oracle.tsv")
    if network:
        path = tmp_path / "net.mpx"
        _random_multiplex(path, *network)
    base = ["--input", str(path), *flags]
    rc, out, _ = run_cli(capsys, "oracle", *base, "--nc", nc, "--out", part)
    assert rc == 0
    rc, scored, _ = run_cli(capsys, "eval", *base, "--partition", part)
    assert rc == 0
    assert get_field(scored, "modularity") == get_field(out, "maximum modularity")


def test_oracle_size_guard(capsys):
    rc, _, err = run_cli(
        capsys, "oracle", "--input", FLORENTINE, "--gamma", "0.6", "--nc", "3"
    )
    assert rc == 1
    assert "too large" in err


def test_grid_prefers_three_communities(capsys, tmp_path):
    out_file = tmp_path / "grid.tsv"
    rc, out, _ = run_cli(
        capsys,
        "grid", "--input", FLORENTINE, "--method", "dgfm3", "--gamma", "0.6",
        "--nc-range", "2:4", "--k-range", "7:7", "--runs", "20", "--seed", "0",
        "--out", str(out_file),
    )
    assert rc == 0
    rows = {}
    for line in out.splitlines():
        m = re.fullmatch(r"(\d+)\t(\d+)\t(\S+)", line)
        if m:
            rows[(int(m.group(1)), int(m.group(2)))] = float(m.group(3))
    assert set(rows) == {(nc, 7) for nc in (2, 3, 4)}
    assert rows[(3, 7)] == max(rows.values())
    assert "best: n_c=" in out
    assert out_file.read_text().startswith("n_c\tk\tmodularity\n")


def test_grid_truncation_consistent_with_fresh_basis(capsys, tmp_path):
    # a k=4 cell inside a k-range up to 8 must match a standalone k=4 run
    rc, grid_out, _ = run_cli(
        capsys,
        "grid", "--input", FLORENTINE, "--method", "dgfm3", "--gamma", "0.6",
        "--nc-range", "3:3", "--k-range", "4:8", "--runs", "10", "--seed", "3",
    )
    assert rc == 0
    cell = float(re.search(r"^3\t4\t(\S+)$", grid_out, re.M).group(1))
    _, det_out, _ = run_cli(
        capsys,
        "detect", "--input", FLORENTINE, "--method", "dgfm3", "--nc", "3",
        "--k", "4", "--gamma", "0.6", "--runs", "10", "--seed", "3",
        "--out", str(tmp_path / "p.tsv"),
    )
    assert abs(cell - float(get_field(det_out, "modularity"))) <= 1e-10


def test_grid_bad_range(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(
            ["grid", "--input", FLORENTINE, "--method", "dgfm3",
             "--nc-range", "5:2", "--k-range", "3:4"]
        )  # fmt: skip
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: mpxmbo grid")
    assert err.endswith("error: argument --nc-range: empty range '5:2'\n")


@pytest.mark.parametrize(
    "nc_range, k_range, message",
    [
        ("2", "3:4", "--nc-range expects low:high, got '2'"),
        ("2:3", "a:b", "--k-range expects integers, got 'a:b'"),
    ],
)
def test_grid_malformed_range_is_a_usage_error(capsys, tmp_path, nc_range, k_range, message):
    out = tmp_path / "grid.tsv"
    with pytest.raises(SystemExit) as info:
        cli.main(
            ["grid", "--input", FLORENTINE, "--method", "dgfm3", "--nc-range", nc_range,
             "--k-range", k_range, "--runs", "2", "--out", str(out)]
        )  # fmt: skip
    stdout, err = capsys.readouterr()
    assert (info.value.code, stdout) == (2, "")
    assert err.startswith("usage: mpxmbo grid")
    flag, text = message.split(" ", 1)
    assert err.endswith(f"mpxmbo grid: error: argument {flag}: {text}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "nc_range,k_range,message",
    [
        ("33:35", "3:3", "n_c cannot exceed the number of node-layer pairs"),
        ("1:2", "3:3", "n_c must be >= 2"),
        ("2:3", "0:3", "k must be >= 1"),
    ],
)
def test_grid_bad_cell_fails_before_the_solve(capsys, tmp_path, nc_range, k_range, message):
    # Florentine has nL = 34; no row is printed and no file written
    out = tmp_path / "grid.tsv"
    rc, stdout, err = run_cli(
        capsys,
        "grid", "--input", FLORENTINE, "--method", "dgfm3", "--nc-range", nc_range,
        "--k-range", k_range, "--runs", "2", "--out", str(out),
    )
    assert (rc, stdout, err) == (1, "", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "nc, k, message",
    [
        ("3", "34", "need 1 <= k < nL, got k=34, nL=34"),
        ("35", "4", "n_c cannot exceed the number of node-layer pairs"),
    ],
)
def test_detect_shape_too_large_for_the_network(capsys, tmp_path, nc, k, message):
    # Florentine has nL = 34; neither the partition nor the cache is written
    out, cache = tmp_path / "out.tsv", tmp_path / "basis.npz"
    rc, stdout, err = run_cli(
        capsys, "detect", "--input", FLORENTINE, "--method", "dgfm3", "--nc", nc, "--k", k,
        "--basis-cache", str(cache), "--out", str(out),
    )  # fmt: skip
    assert (rc, stdout, err) == (1, "", f"error: {message}\n")
    assert not out.exists() and not cache.exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--runs", "0", "n_runs must be >= 1"),
        ("--dt", "0", "dt must be positive"),
        ("--max-iter", "-1", "max_iter must be >= 0"),
        ("--nc", "1", "n_c must be >= 2"),
        ("--k", "0", "k must be >= 1"),
        ("--gamma", "0", "resolution parameters must be positive and finite"),
        ("--eig-tol", "0", "tolerances must be positive"),
        ("--eig-tol", "-1e-8", "tolerances must be positive"),
        ("--eig-tol", "1", "eig_tol must be below 1, or every basis row is unreached"),
        ("--eig-tol", "inf", "eig_tol must be below 1, or every basis row is unreached"),
        ("--eig-tol", "nan", "tolerances must be positive"),
        ("--threads", "0", "threads must be >= 1"),
        ("--threads", "-2", "threads must be >= 1"),
    ],
)
@pytest.mark.parametrize("command", ["detect", "grid"])
def test_bad_run_flag_fails_before_reading(
    capsys, tmp_path, monkeypatch, command, flag, value, message
):
    # a flag DetectConfig (or, for --threads, cli._load) rejects ends detect
    # and grid (through a corner cell of its ranges) before the network is
    # read; nothing is written
    monkeypatch.setattr(cli, "load_network", lambda *a, **k: pytest.fail("network read"))
    shape = {"--nc": "3", "--k": "4"}
    extra = [f"{flag}={value}"]
    if flag in shape:
        shape[flag], extra = value, []
    if command == "detect":
        shape = ["--nc", shape["--nc"], "--k", shape["--k"]]
    else:
        shape = ["--nc-range", f"{shape['--nc']}:3", "--k-range", f"{shape['--k']}:4"]
    out = tmp_path / "out.tsv"
    rc, stdout, err = run_cli(
        capsys, command, "--input", FLORENTINE, "--method", "dgfm3", *shape, *extra,
        "--out", str(out),
    )  # fmt: skip
    assert (rc, stdout, err) == (1, "", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("seed", ["0", "600"])
@pytest.mark.parametrize(
    "command",
    [
        ["detect", "--method", "dgfm3", "--nc", "3", "--k", "4"],
        ["spectrum", "--operator", "mod", "--k", "4"],
    ],
)
def test_negative_seed_rejected_on_both_solver_paths(capsys, tmp_path, command, seed):
    # detect solves through the method basis, spectrum directly; each takes
    # a seed >= 0 and rejects -1 with one error line, writing nothing
    out = tmp_path / "out.tsv"
    rc, _, _ = run_cli(capsys, *command, "--input", FLORENTINE, "--seed", seed, "--out", str(out))
    assert rc == 0 and out.exists()
    out.unlink()
    rc, stdout, err = run_cli(
        capsys, *command, "--input", FLORENTINE, "--seed", "-1", "--out", str(out)
    )
    assert (rc, stdout, err) == (1, "", "error: seed must be >= 0\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "exc, message",
    [
        (MemoryError("Unable to allocate 7.28 TiB for an array"),
         "Unable to allocate 7.28 TiB for an array"),
        (MemoryError(), "MemoryError"),
    ],
)  # fmt: skip
def test_memory_error_is_an_error_line(capsys, monkeypatch, tmp_path, exc, message):
    # a header such as n=1000000000000 fails to allocate the degrees; how
    # large an allocation fails depends on the host, so the error is raised here
    def compute_degrees(net):
        raise exc

    monkeypatch.setattr(cli, "compute_degrees", compute_degrees)
    rc, stdout, err = run_cli(
        capsys, "detect", "--input", FLORENTINE, "--method", "dgfm3", "--nc", "3", "--k", "4",
        "--out", str(tmp_path / "out.tsv"),
    )  # fmt: skip
    assert (rc, stdout, err) == (1, "", f"error: {message}\n")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["--version"])
    assert info.value.code == 0
    assert re.match(r"mpxmbo \d+\.\d+", capsys.readouterr().out)
