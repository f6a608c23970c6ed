"""Network model, degrees, and file format round trips."""

import gc
import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from mpxmbo import (
    MultiplexNetwork,
    NetworkFormatError,
    Partition,
    SparseSym,
    all_to_all_coupling,
    compute_degrees,
    gamma_vector,
    load_labels,
    load_network,
    load_partition,
    save_partition,
)
from mpxmbo import _kernels, network

from conftest import (
    dense_supra,
    from_dense_layers,
    random_loader_file,
    random_network,
    reference_load_coupling,
    reference_load_labels,
    reference_load_network,
    reference_load_partition,
    save_coupling,
    save_network,
    toarray,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_single_edge_parsed_symmetrically(tmp_path):
    path = write(tmp_path, "a.mpx", "#multiplex n=2 L=1\n1\t1\t2\t1.0\n")
    net = load_network(path, omega=0.0)
    a = toarray(net.intra[0])
    assert a[0, 1] == 1.0 and a[1, 0] == 1.0
    assert a[0, 0] == 0.0 and a[1, 1] == 0.0


def test_missing_weight_defaults_to_one(tmp_path):
    path = write(tmp_path, "a.mpx", "#multiplex n=2 L=1\n1\t1\t2\n")
    net = load_network(path, omega=0.0)
    assert toarray(net.intra[0])[0, 1] == 1.0


def test_duplicate_edges_summed(tmp_path):
    path = write(
        tmp_path, "a.mpx", "#multiplex n=2 L=1\n1\t1\t2\t0.5\n1\t2\t1\t0.5\n"
    )
    net = load_network(path, omega=0.0)
    assert toarray(net.intra[0])[0, 1] == 1.0


def test_florentine_file_shape(florentine):
    net, deg = florentine
    assert (net.n, net.L) == (17, 2)
    assert deg.layer_strengths.tolist() == [40.0, 30.0]
    assert deg.total_strength == 104.0  # 40 + 30 + 1*17*2


def test_intra_matrices_exactly_symmetric():
    rng = np.random.default_rng(11)
    for _ in range(10):
        net = random_network(rng)
        for layer in net.intra:
            a = toarray(layer)
            assert np.array_equal(a, a.T)
            assert a.min() >= 0.0


def test_compute_degrees_worked_example():
    # L=2, n=2, layer 1 edge (1,2), layer 2 empty, all-to-all coupling
    layers = [np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros((2, 2))]
    net = from_dense_layers(layers, omega=1.0)
    deg = compute_degrees(net)
    assert deg.supra_degrees.tolist() == [2.0, 2.0, 1.0, 1.0]
    assert deg.layer_strengths.tolist() == [2.0, 0.0]
    assert deg.total_strength == 6.0
    assert deg.intra_degrees[0].tolist() == [1.0, 1.0]
    assert deg.intra_degrees[1].tolist() == [0.0, 0.0]


def test_supra_degrees_match_dense_row_sums():
    rng = np.random.default_rng(12)
    for _ in range(10):
        net = random_network(rng)
        deg = compute_degrees(net)
        assert np.allclose(deg.supra_degrees, dense_supra(net).sum(axis=1), atol=1e-12)


def test_omega_zero_supra_is_concatenated_intra():
    rng = np.random.default_rng(13)
    net = random_network(rng, omega_choices=(0.0,))
    deg = compute_degrees(net)
    assert np.array_equal(deg.supra_degrees, deg.intra_degrees.ravel())


def test_empty_network_all_zero(tmp_path):
    path = write(tmp_path, "a.mpx", "#multiplex n=3 L=2\n")
    net = load_network(path, omega=0.0)
    deg = compute_degrees(net)
    assert deg.total_strength == 0.0
    assert not deg.supra_degrees.any()
    assert not deg.layer_strengths.any()


def test_total_strength_identity_exact_on_integer_weights():
    rng = np.random.default_rng(14)
    for _ in range(20):
        n = int(rng.integers(3, 12))
        L = int(rng.integers(1, 4))
        layers = []
        for _ in range(L):
            a = np.zeros((n, n))
            iu, ju = np.triu_indices(n, 1)
            mask = rng.random(iu.size) < 0.4
            a[iu[mask], ju[mask]] = rng.integers(1, 5, size=mask.sum())
            layers.append(a + a.T)
        net = from_dense_layers(layers, omega=1.0)
        deg = compute_degrees(net)
        expected = sum(layer.sum() for layer in layers) + 1.0 * n * net.coupling.sum()
        assert deg.total_strength == expected


def test_self_loop_counted_once_in_degree_and_strength(tmp_path):
    path = write(tmp_path, "a.mpx", "#multiplex n=2 L=1\n1\t1\t2\t1\n1\t1\t1\t2\n")
    net = load_network(path, omega=0.0)
    deg = compute_degrees(net)
    assert deg.intra_degrees[0].tolist() == [3.0, 1.0]
    assert deg.layer_strengths[0] == 4.0  # 1^T A 1 with the diagonal once


def test_network_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(15)
    for i in range(5):
        net = random_network(rng)
        path = tmp_path / f"net{i}.mpx"
        save_network(net, path)
        back = load_network(path, omega=net.omega)
        assert (back.n, back.L) == (net.n, net.L)
        for a, b in zip(net.intra, back.intra):
            assert np.array_equal(toarray(a), toarray(b))
        assert np.array_equal(back.coupling, net.coupling)


def test_coupling_file_round_trip(tmp_path):
    coupling = np.array([[0.0, 2.0, 0.5], [2.0, 0.0, 1.0], [0.5, 1.0, 0.0]])
    layers = [np.zeros((2, 2))] * 3
    layers[0] = np.array([[0.0, 1.0], [1.0, 0.0]])
    net = from_dense_layers(layers, coupling=coupling, omega=0.5)
    npath, cpath = tmp_path / "n.mpx", tmp_path / "c.tsv"
    save_network(net, npath)
    save_coupling(net, cpath)
    back = load_network(npath, coupling_path=cpath, omega=0.5)
    assert np.array_equal(back.coupling, coupling)


def test_default_coupling_is_all_to_all(tmp_path):
    path = write(tmp_path, "a.mpx", "#multiplex n=2 L=3\n1\t1\t2\t1\n")
    net = load_network(path, omega=1.0)
    assert np.array_equal(net.coupling, all_to_all_coupling(3))
    assert np.array_equal(all_to_all_coupling(3), np.ones((3, 3)) - np.eye(3))


def test_labels_per_node_replicated(tmp_path):
    npath = write(tmp_path, "a.mpx", "#multiplex n=2 L=2\n1\t1\t2\t1\n")
    net = load_network(npath, omega=1.0)
    lpath = write(tmp_path, "l.tsv", "1\ta\n2\tb\n")
    part = load_labels(lpath, net)
    assert part.assignment.tolist() == [1, 2, 1, 2]


def test_labels_node_layer_format_authoritative(tmp_path):
    npath = write(tmp_path, "a.mpx", "#multiplex n=2 L=2\n1\t1\t2\t1\n")
    net = load_network(npath, omega=1.0)
    lpath = write(tmp_path, "l.tsv", "1\t1\ty\n1\t2\tx\n2\t1\ty\n2\t2\ty\n")
    part = load_labels(lpath, net)
    # pair (1,2) keeps its own label, distinct across layers
    assert part.assignment.tolist() == [1, 1, 2, 1]


def test_labels_first_appearance_remap(tmp_path):
    npath = write(tmp_path, "a.mpx", "#multiplex n=3 L=1\n1\t1\t2\t1\n")
    net = load_network(npath, omega=0.0)
    lpath = write(tmp_path, "l.tsv", "1\ta\n2\tc\n3\tb\n")
    part = load_labels(lpath, net)
    assert part.assignment.tolist() == [1, 2, 3]


def test_labels_conflicting_duplicate_rejected(tmp_path):
    npath = write(tmp_path, "a.mpx", "#multiplex n=2 L=1\n1\t1\t2\t1\n")
    net = load_network(npath, omega=0.0)
    lpath = write(tmp_path, "l.tsv", "1\ta\n1\tb\n2\ta\n")
    with pytest.raises(NetworkFormatError):
        load_labels(lpath, net)


def test_labels_missing_node_rejected(tmp_path):
    npath = write(tmp_path, "a.mpx", "#multiplex n=3 L=1\n1\t1\t2\t1\n")
    net = load_network(npath, omega=0.0)
    lpath = write(tmp_path, "l.tsv", "1\ta\n2\tb\n")
    with pytest.raises(NetworkFormatError):
        load_labels(lpath, net)


def test_save_partition_exact_format(tmp_path):
    npath = write(tmp_path, "a.mpx", "#multiplex n=2 L=2\n1\t1\t2\t1\n")
    net = load_network(npath, omega=1.0)
    part = Partition(np.array([1, 2, 1, 2]), 2)
    out = tmp_path / "p.tsv"
    save_partition(part, net, out)
    assert out.read_text() == "1\t1\t1\n2\t1\t2\n1\t2\t1\n2\t2\t2\n"


def test_save_partition_all_one_community(tmp_path):
    npath = write(tmp_path, "a.mpx", "#multiplex n=2 L=2\n1\t1\t2\t1\n")
    net = load_network(npath, omega=1.0)
    out = tmp_path / "p.tsv"
    save_partition(Partition(np.ones(4, dtype=np.int64), 1), net, out)
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert all(line.endswith("1") for line in lines)


def test_partition_round_trip(tmp_path):
    npath = write(tmp_path, "a.mpx", "#multiplex n=3 L=2\n1\t1\t2\t1\n")
    net = load_network(npath, omega=1.0)
    rng = np.random.default_rng(16)
    part = Partition(rng.integers(1, 4, size=6).astype(np.int64), 3)
    out = tmp_path / "p.tsv"
    save_partition(part, net, out)
    back = load_partition(out, net)
    assert np.array_equal(back.assignment, part.assignment)


@pytest.mark.parametrize(
    "body",
    [
        "1\t1\t2\t1\n",  # no header at all
        "#multiplex n=2 L=1\n1\t1\t2\t-1\n",  # negative weight
        "#multiplex n=2 L=1\n1\t1\t3\t1\n",  # node out of range
        "#multiplex n=2 L=1\n2\t1\t2\t1\n",  # layer out of range
        "#multiplex n=2 L=1\n1\t1\ttwo\t1\n",  # unparsable token
        "#multiplex n=2 L=1\n1\t1\n",  # too few columns
    ],
)
def test_malformed_network_files_rejected(tmp_path, body):
    path = write(tmp_path, "bad.mpx", body)
    with pytest.raises(NetworkFormatError):
        load_network(path, omega=0.0)


def test_parse_error_reports_path_and_line(tmp_path):
    path = write(tmp_path, "bad.mpx", "#multiplex n=2 L=1\n# fine\n1\t1\t2\t-3\n")
    with pytest.raises(NetworkFormatError) as err:
        load_network(path, omega=0.0)
    assert err.value.line == 3
    assert str(path) in str(err.value)


H2 = "#multiplex n=2 L=1\n"
INT = "invalid literal for int() with base 10: "
FLT = "could not convert string to float: "

# (file kind, file body, line, message) of every NetworkFormatError the four
# loaders raise; when a file has several faults, the first line checked wins
FORMAT_ERRORS = [
    ("network", "1\t1\t2\t1\n", 1, "edge line before #multiplex header"),
    ("network", "", None, "missing #multiplex header"),
    ("network", "# a\n\n# b\n", None, "missing #multiplex header"),
    ("network", H2 + "1\t1\t2\n" + H2, 3, "duplicate #multiplex header"),
    ("network", "# c\n#multiplex n=0 L=1\n1\t1\t2\n", 2, "header requires n >= 1 and L >= 1"),
    ("network", "#multiplex n=2 L=0\n", 1, "header requires n >= 1 and L >= 1"),
    ("network", "# c\n1\t1\t2\n" + H2, 2, "edge line before #multiplex header"),
    ("network", "1\t1\tx\n" + H2, 1, "edge line before #multiplex header"),
    ("network", H2 + "1\t1\n", 2, "expected 'layer u v [weight]'"),
    ("network", H2 + "1\t1\t2\t1\t5\n", 2, "expected 'layer u v [weight]'"),
    ("network", H2 + "1\t1\ttwo\t1\n", 2, "cannot parse edge line: " + INT + "'two'"),
    ("network", H2 + "1\t1\t2\tw\n", 2, "cannot parse edge line: " + FLT + "'w'"),
    ("network", H2 + "1\t1.0\t2\n", 2, "cannot parse edge line: " + INT + "'1.0'"),
    ("network", H2 + "2\t1\t2\t1\n", 2, "layer id 2 out of range 1..1"),
    ("network", H2 + "0\t1\t2\t1\n", 2, "layer id 0 out of range 1..1"),
    ("network", H2 + "1\t1\t3\t1\n", 2, "node id out of range 1..2"),
    ("network", H2 + "1\t0\t2\t1\n", 2, "node id out of range 1..2"),
    ("network", H2 + "1\t1\t2\tnan\n", 2, "non-finite weight"),
    ("network", H2 + "1\t1\t2\t-inf\n", 2, "non-finite weight"),
    ("network", H2 + "1\t1\t2\t-1\n", 2, "negative weight -1.0"),
    ("network", H2 + "1\t1\t2\t-2.5e-300\n", 2, "negative weight -2.5e-300"),
    ("network", H2 + "2\t1\t2\t-1\n", 2, "layer id 2 out of range 1..1"),
    # a range error on line 3 wins over a parse error on line 5, and back
    ("network", H2 + "1\t1\t2\n1\t1\t3\n1\t1\t2\n1\tx\t2\n", 3, "node id out of range 1..2"),
    ("network", H2 + "1\t1\t2\n1\tx\t2\n1\t1\t2\n1\t1\t3\n", 3, "cannot parse edge line: " + INT + "'x'"),
    ("network", "#multiplex n=3 L=1\n1\t1\t2\n\n# note\n   \n1\t2\t3\t-1\n", 6, "negative weight -1.0"),
    ("network", "#multiplex n=2 L=1\r\n1\t1\t2\r\n1\t1\t3\r\n", 3, "node id out of range 1..2"),
    ("network", "#multiplex n=2 L=1\r1\t1\t2\r1\t1\t3\r", 3, "node id out of range 1..2"),
    ("network", H2 + "1\t1\t2\n1\t1\t3", 3, "node id out of range 1..2"),
    ("network", H2 + "1\t1\t2\t# note\n", 2, "expected 'layer u v [weight]'"),
    ("network", H2 + "1\t1\t2\t#x\n", 2, "cannot parse edge line: " + FLT + "'#x'"),
    ("network", H2 + "1\t1\t2#x\n", 2, "cannot parse edge line: " + INT + "'2#x'"),
    ("network", H2 + "1\t1\t2\n#multiplex n=0 L=1\n1\t1\t3\n", 3, "duplicate #multiplex header"),
    ("network", H2 + "1\t1\t3\n" + H2, 2, "node id out of range 1..2"),
    ("network", H2 + "99999999999999999999\t1\t2\n", 2,
     "layer id 99999999999999999999 out of range 1..1"),  # fmt: skip
    ("network", H2 + "١\t1\t2\n1\t1\t3\n", 3, "node id out of range 1..2"),
    ("network", H2 + "1\t1_0\t2\n", 2, "node id out of range 1..2"),
    ("network", H2 + "1\t1\t2\t1_0.5\n1\t1\t2\t-1\n", 3, "negative weight -1.0"),
    ("network", H2 + "1\t1\t2\t1\n1\t2\t1\n1\t2\t2\t1\t1\n", 4, "expected 'layer u v [weight]'"),
    ("network", H2 + "  1\t1\t3  \n", 2, "node id out of range 1..2"),
    # coupling files, read with a network of n = 2 and L = 3
    ("coupling", "1\t2\n", 1, "expected 'k l weight'"),
    ("coupling", "1\t2\t1\t1\n", 1, "expected 'k l weight'"),
    ("coupling", "1\t2\tx\n", 1, "cannot parse coupling line: " + FLT + "'x'"),
    ("coupling", "1.0\t2\t1\n", 1, "cannot parse coupling line: " + INT + "'1.0'"),
    ("coupling", "1\t4\t1\n", 1, "layer id out of range 1..3"),
    ("coupling", "0\t1\t1\n", 1, "layer id out of range 1..3"),
    ("coupling", "2\t2\t1\n", 1, "self-referential coupling entry"),
    ("coupling", "1\t2\t-1\n", 1, "coupling weight must be finite and >= 0"),
    ("coupling", "1\t2\tnan\n", 1, "coupling weight must be finite and >= 0"),
    ("coupling", "1\t2\t1\n2\t1\t3\n", 2, "duplicate coupling entry for layers (1, 2)"),
    ("coupling", "1\t2\t1\n2\t1\t3\n1\t4\t1\n", 2, "duplicate coupling entry for layers (1, 2)"),
    ("coupling", "# c\n\n1\t3\t1\n3\t3\t1\n", 4, "self-referential coupling entry"),
    ("coupling", "1\t2\t1\n1\t3\t1\n2\t3\t1\n3\t1\t2\n", 4,
     "duplicate coupling entry for layers (1, 3)"),  # fmt: skip
    # label and partition files, read with a network of n = 3 and L = 2
    ("labels", "1\n", 1, "expected 'node label' or 'node layer label'"),
    ("labels", "1\t2\t3\t4\n", 1, "expected 'node label' or 'node layer label'"),
    ("labels", "1\ta\n2\t1\tb\n", 2, "mixed label-file formats"),
    ("labels", "x\ta\n", 1, "cannot parse label line: " + INT + "'x'"),
    ("labels", "1\tx\ta\n", 1, "cannot parse label line: " + INT + "'x'"),
    ("labels", "1.0\ta\n", 1, "cannot parse label line: " + INT + "'1.0'"),
    ("labels", "4\ta\n", 1, "node id 4 out of range 1..3"),
    ("labels", "0\ta\n", 1, "node id 0 out of range 1..3"),
    ("labels", "1\t3\ta\n", 1, "layer id 3 out of range 1..2"),
    ("labels", "", None, "empty label file"),
    ("labels", "# only\n\n", None, "empty label file"),
    ("labels", "1\ta\n1\tb\n2\ta\n3\ta\n", 2, "conflicting labels for node 1"),
    ("labels", "1\ta\n2\tb\n", None, "missing label for node 3"),
    ("labels", "1\t1\ta\n1\t1\tb\n", 2, "conflicting labels for pair (1,1)"),
    ("labels", "1\t1\ta\n2\t1\ta\n3\t1\ta\n1\t2\ta\n2\t2\ta\n", None, "missing label for pair (3,2)"),
    # conflicts are looked for only after every line has been read
    ("labels", "1\ta\n1\tb\n2\ta\n4\ta\n", 4, "node id 4 out of range 1..3"),
    ("labels", "1\ta\n1\tb\n2\t1\ta\n", 3, "mixed label-file formats"),
    ("labels", "99999999999999999999\ta\n", 1, "node id 99999999999999999999 out of range 1..3"),
    ("labels", "1\t1\ta\n1\t-99999999999999999999\ta\n", 2,
     "layer id -99999999999999999999 out of range 1..2"),  # fmt: skip
    ("labels", "1\ta\n2\tb\n3\ta#b\n2\tc\n", 4, "conflicting labels for node 2"),
    ("partition", "1\t1\n", 1, "expected 'node layer community'"),
    ("partition", "1\t1\tx\n", 1, "cannot parse partition line: " + INT + "'x'"),
    ("partition", "1\t1\t1.0\n", 1, "cannot parse partition line: " + INT + "'1.0'"),
    ("partition", "4\t1\t1\n", 1, "node or layer id out of range"),
    ("partition", "1\t3\t1\n", 1, "node or layer id out of range"),
    ("partition", "1\t1\t0\n", 1, "community label 0 must be >= 1"),
    ("partition", "1\t1\t-99999999999999999999\n", 1,
     "community label -99999999999999999999 must be >= 1"),  # fmt: skip
    ("partition", "1\t1\t1\n1\t1\t2\n", 2, "conflicting labels for pair (1,1)"),
    ("partition", "1\t1\t1\n2\t1\t1\n3\t1\t1\n1\t2\t1\n2\t2\t1\n", None,
     "missing label for pair (3,2)"),  # fmt: skip
    ("partition", "", None, "missing label for pair (1,1)"),
    # partition conflicts are checked line by line, unlike label conflicts
    ("partition", "1\t1\t1\n1\t1\t2\n4\t1\t1\n", 2, "conflicting labels for pair (1,1)"),
    ("partition", "1\t1\t1\n4\t1\t1\n1\t1\t2\n", 2, "node or layer id out of range"),
    ("partition", "1\t1\t2\n1\t1\t2\n# c\n2\t1\t0\n", 4, "community label 0 must be >= 1"),
    # labels above nL = 6, the largest any partition written can hold
    ("partition", "1\t1\t7\n", 1, "community label 7 out of range 1..6"),
    ("partition", "1\t1\t99999999999999999999\n", 1,
     "community label 99999999999999999999 out of range 1..6"),  # fmt: skip
    ("partition", "1\t1\t6\n1\t1\t6\n4\t1\t1\n2\t1\t7\n", 3, "node or layer id out of range"),
]


def load_kind(tmp_path, kind, body, name="f.txt"):
    """Load `body` (written byte for byte) as a file of the given kind."""
    path = tmp_path / name
    path.write_bytes(body.encode("utf-8"))
    return path, load_path(tmp_path, kind, path)


def load_path(tmp_path, kind, path):
    """Load the file or pipe at `path` as the given kind."""
    if kind == "network":
        return load_network(path, omega=0.0)
    if kind == "coupling":
        net = write(tmp_path, "n.mpx", "#multiplex n=2 L=3\n1\t1\t2\n")
        return load_network(net, coupling_path=path)
    net = load_network(write(tmp_path, "n.mpx", "#multiplex n=3 L=2\n1\t1\t2\n"))
    return (load_labels if kind == "labels" else load_partition)(path, net)


@pytest.mark.parametrize(
    "kind, body, line, message",
    FORMAT_ERRORS,
    ids=[f"{case[0]}-{i}" for i, case in enumerate(FORMAT_ERRORS)],
)
def test_format_error_line_and_message(tmp_path, kind, body, line, message):
    with pytest.raises(NetworkFormatError) as err:
        load_kind(tmp_path, kind, body)
    where = f"{tmp_path / 'f.txt'}: " + ("" if line is None else f"line {line}: ")
    assert (err.value.line, str(err.value)) == (line, where + message)


# (file kind, unusual but valid body, plain body that must load the same)
EQUIVALENT_FILES = [
    ("network", H2 + "1\t1\t2\n\n# note\n   \n1\t2\t2\t0.5\n", H2 + "1\t1\t2\n1\t2\t2\t0.5\n"),
    ("network", "#multiplex n=2 L=1\r\n1\t1\t2\r\n1\t2\t2\t3", H2 + "1\t1\t2\n1\t2\t2\t3\n"),
    ("network", H2 + "1\t1\t2\n1\t2\t2\t3\n1 1 2 2.5\n", H2 + "1\t1\t2\t1\n1\t2\t2\t3\n1\t1\t2\t2.5\n"),
    ("network", "# lead\n" + H2 + "1\t1\t2\t2\n# tail\n", H2 + "1\t1\t2\t2\n"),
    ("network", "# only a header\n#multiplex n=2 L=3\n\n", "#multiplex n=2 L=3\n"),
    ("network", H2 + "+1\t١\t0_2\t1_0.5\n", H2 + "1\t1\t2\t10.5\n"),
    ("network", H2 + "1\xa01\x0c2\t007\n", H2 + "1\t1\t2\t7\n"),
    ("labels", "1\ta#b\n2\tc\n3\ta#b\n", "1\tx\n2\ty\n3\tx\n"),
    ("labels", "# c\n1\t2\tb\n\n1\t1\ta\n2\t1\ta\n3\t1\ta\n2\t2\tb\n3\t2\tb\n",
     "1\t2\t2\n1\t1\t1\n2\t1\t1\n3\t1\t1\n2\t2\t2\n3\t2\t2\n"),  # fmt: skip
    ("partition", "1 1 1\n2 1 1\n# c\n3 1 2\n1 2 2\n2 2 2\r\n3 2 1",
     "1\t1\t1\n2\t1\t1\n3\t1\t2\n1\t2\t2\n2\t2\t2\n3\t2\t1\n"),  # fmt: skip
    ("coupling", "# none listed\n\n", ""),
    ("coupling", "1\t2\t1\n# c\n3\t2\t1_0\n", "1\t2\t1\n2\t3\t10\n"),
    ("labels", "1\ta#b\n# c\n2\tc\n3\ta#b\n", "1\tx\n2\ty\n3\tx\n"),
]


def loaded_arrays(loaded):
    if isinstance(loaded, Partition):
        return [loaded.assignment, np.array([loaded.n_c])]
    arrays = [loaded.coupling]
    for a in loaded.intra:
        arrays += [a.rows, a.cols, a.data.view(np.int64)]
    return arrays


@pytest.mark.parametrize(
    "kind, body, plain",
    EQUIVALENT_FILES,
    ids=[f"{case[0]}-{i}" for i, case in enumerate(EQUIVALENT_FILES)],
)
def test_unusual_valid_files_load_like_plain_ones(tmp_path, kind, body, plain):
    _, got = load_kind(tmp_path, kind, body)
    _, want = load_kind(tmp_path, kind, plain)
    for a, b in zip(loaded_arrays(got), loaded_arrays(want), strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def same_arrays(got, want):
    return all(
        a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for a, b in zip(loaded_arrays(got), loaded_arrays(want), strict=True)
    )


# duplicate headers and comments after the data, behind \r\n and bare \r
NEWLINE_ERRORS = [
    (kind, body.replace("\n", end), line, message)
    for end in ("\r\n", "\r")
    for kind, body, line, message in [
        ("network", H2 + "1\t1\t2\n\n# end\n" + H2, 5, "duplicate #multiplex header"),
        ("network", "# a\n\n1\t1\t2\n" + H2, 3, "edge line before #multiplex header"),
        ("network", H2 + "# c\n1\t1\t3\n# end", 3, "node id out of range 1..2"),
        ("partition", "1\t1\t1\n# c\n\n1\t1\t2\n# end\n", 4, "conflicting labels for pair (1,1)"),
    ]
]
NEWLINE_FILES = [
    (kind, body.replace("\n", end), plain)
    for end in ("\r\n", "\r")
    for kind, body, plain in [
        ("network", H2 + "1\t1\t2\t1\n\n# c\n1\t2\t2\t0.5\n# end\n",
         H2 + "1\t1\t2\t1\n1\t2\t2\t0.5\n"),
        ("labels", "1\ta\n# c\n2\tb\n3\ta\n# end", "1\ta\n2\tb\n3\ta\n"),
    ]
]


def read_both_ways(tmp_path, pipe_path, kind, body):
    """What loading `body` gives from a regular file and from a pipe: the
    loaded object, or the (line, message) of its error less the path."""
    path = tmp_path / "f.txt"
    path.write_bytes(body.encode("utf-8"))
    outcomes = []
    for source in (path, pipe_path(body)):
        try:
            outcomes.append(load_path(tmp_path, kind, source))
        except NetworkFormatError as err:
            outcomes.append((err.line, str(err).replace(f"{source}: ", "", 1)))
    return outcomes


@pytest.mark.parametrize(
    "kind, body, line, message",
    FORMAT_ERRORS + NEWLINE_ERRORS,
    ids=[f"{case[0]}-{i}" for i, case in enumerate(FORMAT_ERRORS + NEWLINE_ERRORS)],
)
def test_regular_file_and_pipe_fail_alike(tmp_path, pipe_path, kind, body, line, message):
    # a regular file is parsed from its name and a pipe from memory, with
    # the same first error
    where = "" if line is None else f"line {line}: "
    assert read_both_ways(tmp_path, pipe_path, kind, body) == [(line, where + message)] * 2


# the first 12 EQUIVALENT_FILES, then NEWLINE_FILES, then the rest: a case
# added to EQUIVALENT_FILES leaves the ids of the others unchanged
FILE_AND_PIPE = EQUIVALENT_FILES[:12] + NEWLINE_FILES + EQUIVALENT_FILES[12:]


@pytest.mark.parametrize(
    "kind, body, plain",
    FILE_AND_PIPE,
    ids=[f"{case[0]}-{i}" for i, case in enumerate(FILE_AND_PIPE)],
)
def test_regular_file_and_pipe_load_alike(tmp_path, pipe_path, kind, body, plain):
    from_file, from_pipe = read_both_ways(tmp_path, pipe_path, kind, body)
    _, want = load_kind(tmp_path, kind, plain, "plain.txt")
    assert same_arrays(from_file, want) and same_arrays(from_pipe, want)


def loader_pair(tmp_path, kind, n, L):
    """The package's loader and the reference line loop of a file kind, each
    from a path to the arrays it loads."""
    if kind == "network":
        return (lambda p: loaded_arrays(load_network(p, omega=0.0)),
                lambda p: loaded_arrays(reference_load_network(p)))  # fmt: skip
    if kind == "coupling":
        net = write(tmp_path, "n.mpx", f"#multiplex n=1 L={L}\n")
        return (lambda p: [load_network(net, coupling_path=p).coupling],
                lambda p: [reference_load_coupling(p, L)])  # fmt: skip
    net = from_dense_layers([np.zeros((n, n))] * L)
    load, ref = {"labels": (load_labels, reference_load_labels),
                 "partition": (load_partition, reference_load_partition)}[kind]  # fmt: skip
    return lambda p: loaded_arrays(load(p, net)), lambda p: loaded_arrays(ref(p, net))


def outcome(load, source):
    """The arrays `load(source)` gives, or the type, line and message (less
    the path) of what it raises."""
    try:
        return [(a.dtype, a.tobytes()) for a in load(source)]
    except Exception as exc:
        return type(exc), getattr(exc, "line", None), str(exc).replace(f"{source}: ", "", 1)


# the outcomes a kind's loader has: loaded, or each check's error message
CHECKS = {"network": 13, "coupling": 9, "labels": 12, "partition": 9}


@pytest.mark.parametrize("kind", list(CHECKS))
def test_loaders_match_the_reference_line_loops(tmp_path, kind):
    # 250 seeded small files, valid and faulty, load from a regular file and
    # from a pipe as the line loops of conftest load the file: the same
    # arrays, or the same error type, line and message; among them, every
    # outcome the kind has
    rng = np.random.default_rng(list(CHECKS).index(kind))
    path, seen = tmp_path / "f.txt", set()
    for _ in range(250):
        data, n, L = random_loader_file(rng, kind)
        path.write_bytes(data)
        load, ref = loader_pair(tmp_path, kind, n, L)
        want = outcome(ref, path)
        r, w = os.pipe()
        os.write(w, data)
        os.close(w)
        try:
            assert [outcome(load, path), outcome(load, f"/dev/fd/{r}")] == [want] * 2, data
        finally:
            os.close(r)
        # the message less its line, numbers and quoted parts
        seen.add(isinstance(want, list) or re.sub(r"^line \d+: |'.*|-?\d[-+.\de]*", "", want[2]))
    assert len(seen) == CHECKS[kind], sorted(map(str, seen))


def test_load_network_peak_memory_is_a_small_multiple_of_the_file(tmp_path):
    # the file's text is held once while numpy reads its rows, then released
    # before the layers are built: about 10.7x the file at the peak on 100k
    # edge lines; a copy of the whole text kept as an io.StringIO (4 bytes a
    # character) would add about 4x
    rng = np.random.default_rng(5)
    n, L, m = 6000, 4, 100_000
    edges = np.column_stack([np.sort(rng.integers(1, L + 1, m)), rng.integers(1, n + 1, (m, 2))])
    lines = "%d\t%d\t%d\n" * m % tuple(edges.ravel().tolist())
    path = write(tmp_path, "big.mpx", f"#multiplex n={n} L={L}\n" + lines)
    tracemalloc.start()
    try:
        net = load_network(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(a.nnz for a in net.intra) > m
    assert peak <= 12 * path.stat().st_size


def test_comment_lines_skip_the_python_tokenizer(tmp_path, monkeypatch):
    # np.loadtxt skips comment and blank lines anywhere, so a valid file
    # with them loads without the Python tokenizer, to the plain file's
    # bits; a # after a field still takes the tokenizer and its error
    calls, tokenize = [], network._tokenize
    monkeypatch.setattr(network, "_tokenize", lambda *args: calls.append(args) or tokenize(*args))
    part = [f"{j}\t{l}\t{1 + (j == 3)}\n" for l in (1, 2) for j in (1, 2, 3)]
    cases = [
        ("network", "# lead\n" + H2 + "1\t1\t2\t2\n# a\n\n  # b\n1\t2\t2\t0.5\n\t\n# end\n",
         H2 + "1\t1\t2\t2\n1\t2\t2\t0.5\n"),
        ("coupling", "1\t2\t0.5\n# c\n2\t3\t1\n# end\n", "1\t2\t0.5\n2\t3\t1\n"),
        ("partition", "".join(part[:4]) + "# c\n" + "".join(part[4:]) + "# end", "".join(part)),
    ]  # fmt: skip
    for kind, body, plain in cases:
        _, got = load_kind(tmp_path, kind, body)
        assert not calls
        _, want = load_kind(tmp_path, kind, plain, "plain.txt")
        assert same_arrays(got, want)
    with pytest.raises(NetworkFormatError, match=r"line 2: expected 'layer u v \[weight\]'"):
        load_kind(tmp_path, "network", H2 + "1\t1\t2\t# note\n")
    assert len(calls) == 1


def test_hash_inside_a_label_takes_the_python_tokenizer(tmp_path, monkeypatch):
    # np.loadtxt would cut a field at its #, so a # inside a label is read
    # by _tokenize, to the plain file's partition
    calls, tokenize = [], network._tokenize
    monkeypatch.setattr(network, "_tokenize", lambda *args: calls.append(args) or tokenize(*args))
    _, got = load_kind(tmp_path, "labels", "# lead\n1\ta#b\n2\t#c\n3\ta#b\n")
    assert len(calls) == 1
    _, want = load_kind(tmp_path, "labels", "1\tx\n2\ty\n3\tx\n", "plain.txt")
    assert same_arrays(got, want)


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz"])
def test_compressed_suffix_read_as_plain_text(tmp_path, suffix):
    # np.loadtxt would decompress a file given by such a name; every input
    # is plain UTF-8 text whatever its name
    part = "".join(f"{j}\t{l}\t1\n" for l in (1, 2) for j in (1, 2, 3))
    for kind, body in [
        ("network", "#multiplex n=3 L=2\n1\t1\t2\t1\n# c\n2\t2\t3\t0.5\n"),
        ("coupling", "1\t2\t0.5\n# c\n2\t3\t1\n"),
        ("labels", "1\ta\n2\tb\n# c\n3\ta\n"),
        ("partition", part + "# end\n"),
    ]:
        _, got = load_kind(tmp_path, kind, body, "f" + suffix)
        _, want = load_kind(tmp_path, kind, body)
        assert same_arrays(got, want)


def test_comment_lines_across_blocks(tmp_path):
    # comment lines far into a large file are numbered by counting the line
    # ends before them, \r\n once
    edges = "1\t1\t2\r\n" * 40000
    body = "#multiplex n=2 L=1\r\n" + edges + "# c\r\n#multiplex n=2 L=1\r\n"
    with pytest.raises(NetworkFormatError, match="line 40003: duplicate #multiplex header"):
        load_kind(tmp_path, "network", body)
    # a # after a field at character 65536, far past the first lines
    body = H2 + "# " + "x" * 108 + "\n" + "1\t1\t2\n" * 10900 + "1\t1\t2\t# x\n"
    assert body.rindex("#") == 1 << 16
    with pytest.raises(NetworkFormatError, match="line 10903: expected 'layer u v"):
        load_kind(tmp_path, "network", body)


def test_loaded_weights_bit_identical_to_from_coo(tmp_path):
    # weights written both as repr and as %.12g must read as float() reads
    # them, and repeated edges must sum in file order
    rng = np.random.default_rng(19)
    n, L, m = 30, 3, 4000
    layers = rng.integers(1, L + 1, m)
    ends = rng.integers(1, n + 1, (m, 2))
    weights = rng.lognormal(0.0, 4.0, m)
    weights[::97] = 0.0
    tokens = [repr(float(x)) if i % 2 else f"{x:.12g}" for i, x in enumerate(weights)]
    lines = [f"{l}\t{u}\t{v}\t{t}\n" for l, (u, v), t in zip(layers, ends, tokens)]
    path = write(tmp_path, "w.mpx", f"#multiplex n={n} L={L}\n" + "".join(lines))
    net = load_network(path, omega=0.0)
    for layer in range(1, L + 1):
        rows, cols, data = [], [], []
        for l, (u, v), t in zip(layers, ends, tokens):
            if l == layer:
                rows += [u - 1, v - 1][: 1 + (u != v)]
                cols += [v - 1, u - 1][: 1 + (u != v)]
                data += [float(t)] * (1 + (u != v))
        want, got = SparseSym.from_coo(n, rows, cols, data), net.intra[layer - 1]
        assert np.array_equal(got.rows, want.rows) and np.array_equal(got.cols, want.cols)
        assert np.array_equal(got.data.view(np.int64), want.data.view(np.int64))


@pytest.mark.parametrize("n", [151850024, 151850025, 3037000499, 3037000500])
def test_from_coo_sort_exact_at_any_n(n):
    # from_coo sorts by the key (rows * n + cols) * nnz + position while
    # n * n <= (2**63 - 1) // nnz, and with lexsort above: for these 400
    # entries the key sort ends at n = 151850024, and the two larger n lie
    # around floor(sqrt(2**63)) = 3037000499.  Either sort must give the
    # bits of the same entries relabelled onto a small n
    rng = np.random.default_rng(23)
    ids = np.array([0, 1, 2, n - 2, n - 1])
    rows, cols = rng.integers(0, ids.size, (2, 400))  # duplicates, self-loops
    data = rng.lognormal(0.0, 4.0, 400)
    want = SparseSym.from_coo(ids.size, rows, cols, data)
    got = SparseSym.from_coo(n, ids[rows], ids[cols], data)
    assert np.array_equal(got.rows, ids[want.rows]) and np.array_equal(got.cols, ids[want.cols])
    assert np.array_equal(got.data.view(np.int64), want.data.view(np.int64))


@pytest.mark.parametrize("n", [7, 6000, 3037000499])
def test_from_coo_matches_stable_sort_and_reduceat(n):
    # the reference: a stable sort of rows * n + cols, then one sum per run
    # of equal pairs; at n = 3037000499, n * n * nnz overflows int64
    rng = np.random.default_rng(29)
    ids = np.unique(np.r_[0, n - 1, rng.integers(0, n, 6)])
    pool = ids[rng.integers(0, ids.size, (12, 2))]  # few pairs: many copies
    edges = pool[rng.integers(0, len(pool), 300)]
    edges[::2] = edges[::2, ::-1]  # each pair listed as (u, v) and as (v, u)
    a, b, w = edges[:, 0], edges[:, 1], rng.lognormal(0.0, 4.0, len(edges))
    keep = np.repeat(a != b, 2)
    keep[::2] = True  # as load_network lists it: a self-loop once
    rows, cols = np.c_[a, b].ravel()[keep], np.c_[b, a].ravel()[keep]
    data = np.repeat(w, 2)[keep]
    order = np.argsort(rows * n + cols, kind="stable")
    r, c, d = rows[order], cols[order], data[order]
    starts = np.flatnonzero(np.r_[True, (r[1:] != r[:-1]) | (c[1:] != c[:-1])])
    assert np.diff(starts).max() >= 6  # some pair has 3+ copies, both ways
    got = SparseSym.from_coo(n, rows, cols, data)
    assert np.array_equal(got.rows, r[starts]) and np.array_equal(got.cols, c[starts])
    want = np.add.reduceat(d, starts)
    assert np.array_equal(got.data.view(np.int64), want.view(np.int64))
    t = np.lexsort((got.rows, got.cols))  # the transpose, in (row, col) order
    assert np.array_equal(got.rows[t], got.cols) and np.array_equal(got.cols[t], got.rows)
    assert np.array_equal(got.data[t].view(np.int64), got.data.view(np.int64))


def test_loaders_close_regular_files(tmp_path):
    # every loader reads a file once and closes it, also when it raises; a
    # file object left open warns when it is collected
    net = write(tmp_path, "n.mpx", "#multiplex n=3 L=2\n1\t1\t2\n2\t2\t3\t1_0\n")
    part = "".join(f"{j}\t{l}\t1\n" for l in (1, 2) for j in (1, 2, 3))
    cases = [  # (loader, valid file, a last line out of range)
        (load_network, "#multiplex n=3 L=2\n1\t1\t2\n", "1\t1\t4\n"),
        (lambda p: load_network(net, coupling_path=p), "1\t2\t0.5\n", "1\t3\t1\n"),
        (lambda p: load_labels(p, load_network(net)), "1\ta\n2\tb\n3\ta\n", "4\tb\n"),
        (lambda p: load_partition(p, load_network(net)), part, "1\t3\t1\n"),
    ]
    path = tmp_path / "f.txt"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        for load, body, last in cases:
            path.write_bytes(body.encode())
            load(path)
            for tail in (last.encode(), b"\xff\n"):
                path.write_bytes(body.encode() + tail)
                with pytest.raises(NetworkFormatError):
                    load(path)
        gc.collect()
    assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []


@pytest.mark.parametrize("token", ["1.0", "1e3", "0x10", "2#x", "1_0", "٣"])
def test_loadtxt_refuses_int_tokens_it_would_not_read_as_int_does(token):
    # the bulk reader gives int columns to np.loadtxt and reads a file in
    # Python when loadtxt refuses it: int() rejects the first four tokens
    # and reads the last two by rules loadtxt does not have
    with pytest.raises((ValueError, DeprecationWarning)):
        np.loadtxt([f"1 {token} 2"], dtype=np.int64, comments=None)


def test_float_node_id_rejected_where_warnings_only_warn(tmp_path):
    # older numpy read "1.0" in an int column with only a DeprecationWarning
    path = write(tmp_path, "a.mpx", "#multiplex n=2 L=1\n1\t1.0\t2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        with pytest.raises(NetworkFormatError, match="line 2: cannot parse edge line"):
            load_network(path)


def test_bytes_not_utf8_fail_after_the_lines_before_them(tmp_path):
    # the lines before a byte that is not UTF-8 are read first, so a fault
    # on one of them wins, however far back in the file
    body = b"#multiplex n=2 L=1\n" + b"1\t1\t2\n" * 50000 + b"1\t1\t\xff\n"
    path = tmp_path / "a.mpx"
    path.write_bytes(body)
    with pytest.raises(NetworkFormatError, match="line 50002: 'utf-8' codec can't decode byte 0xff"):
        load_network(path)
    path.write_bytes(body.replace(b"1\t1\t2\n", b"1\t1\t3\n", 1))
    with pytest.raises(NetworkFormatError, match="line 2: node id out of range"):
        load_network(path)


DECODE = "'utf-8' codec can't decode "


@pytest.mark.parametrize(
    "body, line, message",
    [  # "\udcXX" stands for the byte 0xXX, which is not UTF-8 there
        (H2 + "1\t1\t3\n1\t1\t\udcff\n", 2, "node id out of range 1..2"),
        (H2 + "1\t1\t2\n1\t1\t\udcff\n", 3, DECODE + "byte 0xff in position 29: invalid start byte"),
        ("\udcff" + H2, 1, DECODE + "byte 0xff in position 0: invalid start byte"),
        (H2 + "1\t1\t2\r\r\n1\t1\t2\u00e9\udce9", 4, DECODE + "byte 0xe9 in position 34: unexpected end of data"),
        (H2 + "# \u00e9\n\n1\t1\t2\t\udce2\udc82(\n", 4, DECODE + "bytes in position 31-32: invalid continuation byte"),
    ],
    ids=["fault-before", "data-line", "first-line", "newlines-truncated", "comment-continuation"],
)  # fmt: skip
def test_bytes_not_utf8_name_their_line(tmp_path, body, line, message):
    # the first line that is not UTF-8 is the error's, unless a line before
    # it has a fault, however near; from a file or a pipe
    data = body.encode("utf-8", "surrogateescape")
    path = tmp_path / "a.mpx"
    path.write_bytes(data)
    r, w = os.pipe()
    os.write(w, data)
    os.close(w)
    try:
        for source in (str(path), f"/dev/fd/{r}"):
            with pytest.raises(NetworkFormatError) as err:
                load_network(source)
            assert (err.value.line, str(err.value)) == (line, f"{source}: line {line}: {message}")
    finally:
        os.close(r)


def test_range_error_in_a_pipe_names_its_line(pipe_path):
    path = pipe_path("#multiplex n=2 L=1\n1\t1\t3\n")
    with pytest.raises(NetworkFormatError, match="line 2: node id out of range 1..2"):
        load_network(path)


def test_token_loadtxt_refuses_reads_from_a_pipe(pipe_path):
    # loadtxt refuses 1_0, so the Python tokenizer reads the lines a second time
    net = load_network(pipe_path("#multiplex n=2 L=1\n1\t1\t2\t1_0\n"))
    assert toarray(net.intra[0])[0, 1] == 10.0


def test_coupling_diagonal_entry_rejected(tmp_path):
    npath = write(tmp_path, "a.mpx", "#multiplex n=2 L=2\n1\t1\t2\t1\n")
    cpath = write(tmp_path, "c.tsv", "1\t1\t2.0\n")
    with pytest.raises(NetworkFormatError):
        load_network(npath, coupling_path=cpath, omega=1.0)


def test_negative_omega_rejected(tmp_path):
    npath = write(tmp_path, "a.mpx", "#multiplex n=2 L=1\n1\t1\t2\t1\n")
    with pytest.raises(ValueError):
        load_network(npath, omega=-0.5)


def test_partition_label_validation():
    with pytest.raises(ValueError):
        Partition(np.array([0, 1]), 2)  # labels start at 1
    with pytest.raises(ValueError):
        Partition(np.array([1, 3]), 2)  # above n_c
    part = Partition(np.array([1, 3, 3]), 3)
    assert part.n_nonempty() == 2
    u = part.one_hot()
    assert u.shape == (3, 3)
    assert np.array_equal(u.sum(axis=1), np.ones(3))


def layer(n):
    return SparseSym.from_coo(n, [0, 1], [1, 0], [1.0, 1.0])


def network_with_coupling(coupling):
    return MultiplexNetwork(2, 2, (layer(2), layer(2)), np.array(coupling, dtype=float), 1.0)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SparseSym.from_coo(3, [0, 1], [1], [1.0, 1.0]),
         "rows, cols, data must have equal length"),
        (lambda: SparseSym.from_coo(3, [0, 3], [1, 0], [1.0, 1.0]), "index out of range"),
        (lambda: SparseSym.from_coo(3, [0, 1], [1, -1], [1.0, 1.0]), "index out of range"),
        (lambda: SparseSym.from_coo(3, [0, 1], [1, 0], [np.nan, 1.0]), "non-finite weight"),
        (lambda: SparseSym.from_coo(3, [0, 1], [1, 0], [-1.0, 1.0]), "negative weight"),
        (lambda: MultiplexNetwork(0, 1, (), np.zeros((1, 1)), 1.0), "need n >= 1 and L >= 1"),
        (lambda: MultiplexNetwork(2, 0, (), np.zeros((0, 0)), 1.0), "need n >= 1 and L >= 1"),
        (lambda: MultiplexNetwork(2, 2, (layer(2),), all_to_all_coupling(2), 1.0),
         "number of intra-layer matrices must equal L"),
        (lambda: MultiplexNetwork(2, 1, (layer(3),), np.zeros((1, 1)), 1.0),
         "each intra-layer matrix must be SparseSym of size n"),
        (lambda: MultiplexNetwork(2, 1, (np.eye(2),), np.zeros((1, 1)), 1.0),
         "each intra-layer matrix must be SparseSym of size n"),
        (lambda: network_with_coupling(np.zeros((3, 3))), "coupling must be 2x2"),
        (lambda: network_with_coupling([[0, np.inf], [np.inf, 0]]), "non-finite coupling entry"),
        (lambda: network_with_coupling([[0, -1], [-1, 0]]), "negative coupling entry"),
        (lambda: network_with_coupling([[0, 1], [2, 0]]), "coupling matrix is not symmetric"),
        (lambda: network_with_coupling([[1, 0], [0, 0]]), "coupling diagonal must be zero"),
        (lambda: Partition(np.array([1.0, 2.0]), 2), "assignment must be a 1-D integer array"),
        (lambda: Partition(np.ones((2, 2), dtype=int), 2),
         "assignment must be a 1-D integer array"),
        (lambda: Partition(np.array([1]), 0), "n_c must be >= 1"),
    ],
)  # fmt: skip
def test_model_constructors_reject_bad_input(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert type(info.value) is ValueError and str(info.value) == message


def test_save_partition_rejects_a_size_mismatch(tmp_path, florentine):
    net, _ = florentine
    path = tmp_path / "p.tsv"
    with pytest.raises(ValueError) as info:
        save_partition(Partition(np.ones(net.nL - 1, dtype=int), 1), net, path)
    assert str(info.value) == "partition size does not match network"
    assert not path.exists()


def test_gamma_vector_broadcast_and_validation():
    assert gamma_vector(0.7, 3).tolist() == [0.7, 0.7, 0.7]
    assert gamma_vector([0.5, 1.5], 2).tolist() == [0.5, 1.5]
    with pytest.raises(ValueError):
        gamma_vector([1.0], 2)
    with pytest.raises(ValueError):
        gamma_vector(0.0, 1)
    with pytest.raises(ValueError):
        gamma_vector(-1.0, 2)


def test_csr_matvec_matches_dense():
    rng = np.random.default_rng(17)
    for _ in range(5):
        net = random_network(rng)
        for layer in net.intra:
            x = rng.standard_normal(net.n)
            got = _kernels.csr_matvec(layer.rows, layer.cols, layer.data, x, net.n)
            assert np.allclose(got, toarray(layer) @ x, rtol=0, atol=1e-12)
