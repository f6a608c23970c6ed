"""Network model, degrees, and file format round trips."""

import numpy as np
import pytest

from mpxmbo import (
    MultiplexNetwork,
    NetworkFormatError,
    Partition,
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
