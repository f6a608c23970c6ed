"""Network model, degrees, and file format round trips."""

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
    save_network,
    save_partition,
)
from mpxmbo.network import save_coupling
from mpxmbo import _kernels

from conftest import dense_supra, random_network


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_single_edge_parsed_symmetrically(tmp_path):
    path = write(tmp_path, "a.mpx", "#multiplex n=2 L=1\n1\t1\t2\t1.0\n")
    net = load_network(path, omega=0.0)
    a = net.intra[0].toarray()
    assert a[0, 1] == 1.0 and a[1, 0] == 1.0
    assert a[0, 0] == 0.0 and a[1, 1] == 0.0


def test_missing_weight_defaults_to_one(tmp_path):
    path = write(tmp_path, "a.mpx", "#multiplex n=2 L=1\n1\t1\t2\n")
    net = load_network(path, omega=0.0)
    assert net.intra[0].toarray()[0, 1] == 1.0


def test_duplicate_edges_summed(tmp_path):
    path = write(
        tmp_path, "a.mpx", "#multiplex n=2 L=1\n1\t1\t2\t0.5\n1\t2\t1\t0.5\n"
    )
    net = load_network(path, omega=0.0)
    assert net.intra[0].toarray()[0, 1] == 1.0


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
            a = layer.toarray()
            assert np.array_equal(a, a.T)
            assert a.min() >= 0.0


def test_compute_degrees_worked_example():
    # L=2, n=2, layer 1 edge (1,2), layer 2 empty, all-to-all coupling
    layers = [np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros((2, 2))]
    net = MultiplexNetwork.from_dense_layers(layers, omega=1.0)
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
        net = MultiplexNetwork.from_dense_layers(layers, omega=1.0)
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
            assert np.array_equal(a.toarray(), b.toarray())
        assert np.array_equal(back.coupling, net.coupling)


def test_coupling_file_round_trip(tmp_path):
    coupling = np.array([[0.0, 2.0, 0.5], [2.0, 0.0, 1.0], [0.5, 1.0, 0.0]])
    layers = [np.zeros((2, 2))] * 3
    layers[0] = np.array([[0.0, 1.0], [1.0, 0.0]])
    net = MultiplexNetwork.from_dense_layers(layers, coupling=coupling, omega=0.5)
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


def load_kind(tmp_path, kind, body):
    """Load `body` (written byte for byte) as a file of the given kind."""
    path = tmp_path / "f.txt"
    path.write_bytes(body.encode("utf-8"))
    if kind == "network":
        return path, load_network(path, omega=0.0)
    if kind == "coupling":
        net = write(tmp_path, "n.mpx", "#multiplex n=2 L=3\n1\t1\t2\n")
        return path, load_network(net, coupling_path=path)
    net = load_network(write(tmp_path, "n.mpx", "#multiplex n=3 L=2\n1\t1\t2\n"))
    return path, (load_labels if kind == "labels" else load_partition)(path, net)


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
    # text is decoded in chunks, so a fault in an earlier chunk wins
    body = b"#multiplex n=2 L=1\n" + b"1\t1\t2\n" * 50000 + b"1\t1\t\xff\n"
    path = tmp_path / "a.mpx"
    path.write_bytes(body)
    with pytest.raises(UnicodeDecodeError):
        load_network(path)
    path.write_bytes(body.replace(b"1\t1\t2\n", b"1\t1\t3\n", 1))
    with pytest.raises(NetworkFormatError, match="line 2: node id out of range"):
        load_network(path)


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
    assert part.community_sizes().tolist() == [1, 0, 2]
    u = part.one_hot()
    assert u.shape == (3, 3)
    assert np.array_equal(u.sum(axis=1), np.ones(3))


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
            assert np.allclose(got, layer.toarray() @ x, rtol=0, atol=1e-12)
