"""End-to-end command-line behavior, run in process."""

import re

import numpy as np
import pytest

from mpxmbo import cli, load_network

FLORENTINE = "data/florentine.mpx"
TRIANGLES = "data/two_triangles.mpx"


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


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


def test_detect_deterministic_files(capsys, tmp_path):
    paths = [tmp_path / f"p{i}.tsv" for i in range(3)]
    base = [
        "detect", "--input", FLORENTINE, "--method", "dgfm3", "--nc", "3",
        "--k", "7", "--gamma", "0.6", "--runs", "6", "--seed", "7",
    ]
    run_cli(capsys, *base, "--out", str(paths[0]))
    run_cli(capsys, *base, "--out", str(paths[1]))
    run_cli(capsys, *base, "--out", str(paths[2]), "--threads", "4")
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


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
    a = net.intra[0].toarray()
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


def test_basis_cache_reuse_and_stale(capsys, tmp_path):
    cache = tmp_path / "basis.npz"
    out_a, out_b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    base = [
        "detect", "--input", FLORENTINE, "--method", "dgfm3", "--nc", "3",
        "--gamma", "0.6", "--runs", "4", "--seed", "2",
        "--basis-cache", str(cache),
    ]
    rc, out1, err1 = run_cli(capsys, *base, "--k", "7", "--out", str(out_a))
    assert rc == 0 and cache.exists()
    rc, out2, err2 = run_cli(capsys, *base, "--k", "7", "--out", str(out_b))
    assert rc == 0
    assert get_field(out2, "offline seconds") == "0"
    assert out_a.read_bytes() == out_b.read_bytes()
    assert "recomputing" not in err2
    # same cache file, different k: must be recomputed, not reused
    rc, out3, err3 = run_cli(capsys, *base, "--k", "5", "--out", str(out_b))
    assert rc == 0
    assert "recomputing" in err3
    assert get_field(out3, "offline seconds") != "0"


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


@pytest.mark.parametrize(
    "flag, first, second",
    [
        ("--omega", "1", "1.0000000000001"),
        ("--gamma", "0.6", "0.6000000000001"),
        ("--eig-tol", "1e-8", "1.0000000000001e-8"),
    ],
)
def test_basis_cache_keyed_on_exact_parameters(capsys, tmp_path, flag, first, second):
    # the two values agree to 12 significant digits, so a key built from
    # "%.12g" text would reuse the first basis for the second problem
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


@pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning",
    "ignore:invalid value encountered:RuntimeWarning",
)
@pytest.mark.parametrize("weight, value", [("1e308", "nan"), ("1e200", "-inf")])
@pytest.mark.parametrize("command", ["eval", "oracle"])
def test_non_finite_modularity_is_an_error(capsys, tmp_path, command, weight, value):
    # the degrees (1e308) or the squared community volumes (1e200) overflow
    net = tmp_path / "big.mpx"
    net.write_text(f"#multiplex n=3 L=1\n1\t1\t2\t{weight}\n1\t2\t3\t{weight}\n")
    part = tmp_path / "p.tsv"
    part.write_text("1\t1\t1\n2\t1\t1\n3\t1\t2\n")
    flags = ["--partition", str(part)] if command == "eval" else ["--nc", "2"]
    rc, out, err = run_cli(capsys, command, "--input", str(net), *flags)
    assert (rc, out) == (1, "")
    assert err == f"error: modularity is not finite ({value}): the weights overflow float64\n"


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


def test_grid_single_cell_matches_detect(capsys, tmp_path):
    rc, grid_out, _ = run_cli(
        capsys,
        "grid", "--input", FLORENTINE, "--method", "mpbtv", "--gamma", "0.6",
        "--nc-range", "3:3", "--k-range", "4:4", "--runs", "8", "--seed", "5",
    )
    assert rc == 0
    cell = re.search(r"^3\t4\t(\S+)$", grid_out, re.M).group(1)
    _, det_out, _ = run_cli(
        capsys,
        "detect", "--input", FLORENTINE, "--method", "mpbtv", "--nc", "3",
        "--k", "4", "--gamma", "0.6", "--runs", "8", "--seed", "5",
        "--out", str(tmp_path / "p.tsv"),
    )
    assert cell == get_field(det_out, "modularity")


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
    rc, _, err = run_cli(
        capsys,
        "grid", "--input", FLORENTINE, "--method", "dgfm3",
        "--nc-range", "5:2", "--k-range", "3:4",
    )
    assert rc == 2
    assert "usage error" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["--version"])
    assert info.value.code == 0
    assert re.match(r"mpxmbo \d+\.\d+", capsys.readouterr().out)
