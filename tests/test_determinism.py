"""The determinism contract: each knob that README "Determinism" marks
"nothing" changes no printed byte (timing lines aside) and no written file.

Each case moves one knob and runs `cli.main` on data/florentine.mpx and on
a small generated network with a coupling file and per-layer gamma:
`detect` with both methods, plus `eval` or `grid` where the row applies.
It compares stdout, timing lines dropped, and every file the command wrote
with the reference runs, which all rows share, byte for byte.
"""

import contextlib
import io
import os
import re

import numpy as np
import pytest

from mpxmbo import cli

from conftest import DATA_DIR, florentine_best_assignment, planted_network, save_network

TIMING = re.compile(r"^[a-z ]+ seconds: .*\n", re.M)
METHODS = ("mpbtv", "dgfm3")
# On Florentine, mpbtv's top eigenspace holds the two families without ties,
# and rounding residue decides their labels in some of these runs, so a
# basis that is not bit-exact shows; 24 runs keep both of a pool's workers busy
RUNS = ["--runs", "24", "--seed", "7"]


def run(workdir, argv):
    """(stdout without timing lines, {name: bytes} of the files written)
    of one command run in a fresh workdir."""
    workdir.mkdir()
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    finally:
        os.chdir(cwd)
    assert rc == 0, err.getvalue()
    return TIMING.sub("", out.getvalue()), {p.name: p.read_bytes() for p in workdir.iterdir()}


def florentine_texts(root):
    """data/florentine.mpx, with per-pair truth labels of its best split."""
    labels = florentine_best_assignment()
    truth = "".join(f"{i % 17 + 1}\t{i // 17 + 1}\tc{c}\n" for i, c in enumerate(labels))
    return {"input": (DATA_DIR / "florentine.mpx").read_text(), "truth": truth}


def generated_texts(root):
    """A planted network of three layers, with a chain coupling file and
    per-node truth labels."""
    net = planted_network(np.random.default_rng(8), 40, 3, 4, mean_degree=6, mix=0.3)
    save_network(net, root / "planted.mpx")
    truth = "".join(f"{i}\tg{i % 4}\n" for i in range(1, 41))
    coupling = "1\t2\t0.5\n2\t3\t1.5\n"
    return {"input": (root / "planted.mpx").read_text(), "coupling": coupling, "truth": truth}


# name: (input texts, --gamma, --nc, --k)
PROBLEMS = {
    "florentine": (florentine_texts, "0.6", "3", "4"),
    "generated": (generated_texts, "0.8,1,1.2", "4", "6"),
}


def commands(texts, gamma, nc, k, path):
    """The argv of each command of a row, with input files at path(kind),
    which is called once per command and input."""

    def network():
        args = ["--input", path("input"), "--gamma", gamma]
        return args + (["--coupling", path("coupling")] if "coupling" in texts else [])

    detect = {
        m: ["detect", *network(), "--method", m, "--nc", nc, "--k", k, *RUNS,
            "--truth", path("truth"), "--out", "part.tsv"]
        for m in METHODS
    }  # fmt: skip
    grid = {
        m: ["grid", *network(), "--method", m, "--nc-range", f"{int(nc) - 1}:{nc}",
            "--k-range", f"{k}:{k}", *RUNS]
        for m in METHODS
    }  # fmt: skip
    evaluate = ["eval", *network(), "--partition", path("partition"), "--truth", path("truth")]
    return detect, grid, evaluate


def edges(edit):
    """Apply edit to the list of lines after a network file's header."""

    def apply(kind, text):
        if kind != "input":
            return text
        lines = text.splitlines(keepends=True)
        head = next(i for i, line in enumerate(lines) if line.startswith("#multiplex")) + 1
        return "".join(lines[:head] + edit(lines[head:]))

    return apply


def shuffle(lines):
    return [lines[i] for i in np.random.default_rng(1).permutation(len(lines))]


def swap(lines):
    return ["\t".join([f[0], f[2], f[1], *f[3:]]) for f in (line.split("\t") for line in lines)]


def comment(kind, text):
    lines = text.splitlines(keepends=True)
    for i in range(len(lines) - 1, 0, -3):
        lines.insert(i, "# note\n\n  # indented\n")
    return "".join(lines) + "# end\n\n"


# the rows whose knob is an edit of the input files
EDITS = {
    "crlf": lambda kind, text: text.replace("\n", "\r\n"),
    "cr": lambda kind, text: text.replace("\n", "\r"),
    "shuffled": edges(shuffle),
    "swapped": edges(swap),
    "comments": comment,
}


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """Per problem: its input files and the outputs of its detects and
    eval, read from regular files with LF line ends."""
    refs = {}
    for name, (make, gamma, nc, k) in PROBLEMS.items():
        root = tmp_path_factory.mktemp(name)
        texts = make(root)
        for kind, text in texts.items():
            (root / kind).write_text(text)
        detect, _, _ = commands(texts, gamma, nc, k, lambda kind: str(root / kind))
        outs = {m: run(root / m, argv) for m, argv in detect.items()}
        # eval scores the reference dgfm3 partition
        texts["partition"] = outs["dgfm3"][1]["part.tsv"].decode()
        (root / "partition").write_text(texts["partition"])
        _, _, evaluate = commands(texts, gamma, nc, k, lambda kind: str(root / kind))
        refs[name] = texts, root, outs, run(root / "eval", evaluate)
    return refs


@pytest.mark.parametrize("row", ["threads", "cache", "pipe", *EDITS, "grid"])
def test_nothing_row_changes_no_byte(row, reference, tmp_path, monkeypatch, pipe_path):
    # two CPUs, so that --threads 2 starts a pool on any host
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for name, (_, gamma, nc, k) in PROBLEMS.items():
        texts, root, ref, ref_eval = reference[name]
        work = tmp_path / name
        work.mkdir()
        if row in EDITS:
            for kind, text in texts.items():
                with open(work / kind, "w", encoding="utf-8", newline="") as fh:
                    fh.write(EDITS[row](kind, text))

        def path(kind):
            if row == "pipe":
                return pipe_path(texts[kind])
            return str((work if row in EDITS else root) / kind)

        detect, grid, evaluate = commands(texts, gamma, nc, k, path)
        for m in METHODS:
            if row == "grid":
                # one solve at k: the (nc, k) cell is detect at (nc, k)
                out, _ = run(work / m, grid[m])
                cell = re.search(rf"^{nc}\t{k}\t(\S+)\n", out, re.M).group(1)
                assert f"\nmodularity: {cell}\n" in ref[m][0], (name, m)
            elif row == "cache":
                # a miss writes the cache file, and a hit leaves it as it was
                cache = ["--basis-cache", str(work / f"{m}.npz")]
                miss = run(work / m, detect[m] + cache)
                stored = (work / f"{m}.npz").read_bytes()
                hit = run(work / f"{m}-hit", detect[m] + cache)
                assert miss == hit == ref[m], (name, m)
                assert (work / f"{m}.npz").read_bytes() == stored
            else:
                threads = ["--threads", "2"] if row == "threads" else []
                assert run(work / m, detect[m] + threads) == ref[m], (name, m)
        if row not in ("threads", "cache", "grid"):
            assert run(work / "eval", evaluate) == ref_eval, name
