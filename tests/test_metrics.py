"""Quality measures and the brute-force oracle."""

import itertools
import tracemalloc

import numpy as np
import pytest

from mpxmbo import (
    DetectConfig,
    MultiplexNetwork,
    Partition,
    SparseSym,
    all_to_all_coupling,
    balanced_tv_objective,
    compute_degrees,
    detect,
    evaluate,
    matched_accuracy,
    multiplex_modularity,
    nmi,
    oracle_max_modularity,
)
from mpxmbo import _kernels, metrics

from conftest import (
    dense_modularity_value,
    florentine_best_assignment,
    from_dense_layers,
    multiplex_modularity_sumform,
    random_gamma,
    random_network,
    random_partition,
    reference_enumerate_partitions,
    reference_matched_accuracy,
    reference_nmi,
    toarray,
)


def P(labels, n_c=None):
    labels = np.asarray(labels, dtype=np.int64)
    return Partition(labels, n_c or int(labels.max()))


# ---------------------------------------------------------------- modularity


def test_single_community_single_layer_is_zero(two_triangles):
    net, deg = two_triangles
    q = multiplex_modularity(P(np.ones(6, dtype=int)), net, deg, 1.0)
    assert q == 0.0


def test_two_triangles_component_partition(two_triangles):
    net, deg = two_triangles
    q = multiplex_modularity(P([1, 1, 1, 2, 2, 2]), net, deg, 1.0)
    assert q == 0.5


def test_florentine_reference_values(florentine):
    net, deg = florentine
    gamma = 0.6
    best = florentine_best_assignment()
    q_best = multiplex_modularity(P(best), net, deg, gamma)
    assert q_best == pytest.approx(70.84 / 104.0, abs=1e-12)
    assert round(q_best, 3) == 0.681
    competitor = best.copy()
    competitor[2] = 2
    competitor[17 + 2] = 2  # third family joins the bloc in both layers
    q_comp = multiplex_modularity(P(competitor), net, deg, gamma)
    assert q_comp == pytest.approx(70.0 / 104.0, abs=1e-14)
    assert round(q_comp, 3) == 0.673
    assert q_best > q_comp


def test_single_pair_network_literal_formula():
    net = from_dense_layers([np.array([[2.0]])], omega=0.0)
    deg = compute_degrees(net)
    gamma = 1.7
    # one node, one layer: Q = (A11 - gamma d^2 / 2m) / 2mu with d = 2m = A11
    a11 = 2.0
    expected = (a11 - gamma * a11 * a11 / a11) / a11
    got = multiplex_modularity(P([1]), net, deg, gamma)
    assert got == pytest.approx(expected, abs=1e-15)
    assert multiplex_modularity_sumform(P([1]), net, deg, gamma) == pytest.approx(
        expected, abs=1e-15
    )


def test_grouped_sum_and_dense_trace_agree():
    rng = np.random.default_rng(61)
    for _ in range(60):
        net = random_network(rng)
        deg = compute_degrees(net)
        if deg.total_strength <= 0:
            continue
        gamma = random_gamma(rng, net.L)
        part = random_partition(rng, net.nL, int(rng.integers(2, 5)))
        q1 = multiplex_modularity(part, net, deg, gamma)
        q2 = multiplex_modularity_sumform(part, net, deg, gamma)
        q3 = dense_modularity_value(part, net, gamma)
        assert abs(q1 - q2) <= 1e-10
        assert abs(q1 - q3) <= 1e-10


def test_modularity_relabel_invariant(florentine):
    net, deg = florentine
    rng = np.random.default_rng(8)
    part = random_partition(rng, net.nL, 4)
    perm = np.array([3, 1, 4, 2])
    relabeled = Partition(perm[part.assignment - 1], 4)
    q1 = multiplex_modularity(part, net, deg, 0.6)
    q2 = multiplex_modularity(relabeled, net, deg, 0.6)
    assert q1 == q2


def test_modularity_zero_strength_error():
    net = from_dense_layers([np.zeros((2, 2))], omega=0.0)
    deg = compute_degrees(net)
    with pytest.raises(ValueError, match="total strength"):
        multiplex_modularity(P([1, 1]), net, deg, 1.0)
    with pytest.raises(ValueError, match="total strength"):
        multiplex_modularity_sumform(P([1, 1]), net, deg, 1.0)
    with pytest.raises(ValueError):
        balanced_tv_objective(P([1, 1]), net, deg, 1.0)


def test_modularity_size_mismatch(florentine):
    net, deg = florentine
    with pytest.raises(ValueError, match="size"):
        multiplex_modularity(P([1, 2]), net, deg, 1.0)


# ------------------------------------------------------------- tv / balance


def test_all_one_partition_has_no_cut(florentine):
    net, deg = florentine
    tv, balance = balanced_tv_objective(P(np.ones(net.nL, dtype=int)), net, deg, 0.6)
    assert tv == 0.0
    assert balance > 0.0


def test_two_triangles_objective_hand_values(two_triangles):
    net, deg = two_triangles
    tv, balance = balanced_tv_objective(P([1, 1, 1, 2, 2, 2]), net, deg, 1.0)
    assert tv == 0.0
    assert balance == 6.0  # 2 * 36 / 12
    assert deg.total_strength == 12.0
    q = multiplex_modularity(P([1, 1, 1, 2, 2, 2]), net, deg, 1.0)
    assert q == 1.0 - (tv + balance) / deg.total_strength


def test_equivalence_identity_randomized():
    rng = np.random.default_rng(62)
    checked = 0
    while checked < 60:
        net = random_network(rng)
        deg = compute_degrees(net)
        if deg.total_strength <= 0:
            continue
        gamma = random_gamma(rng, net.L)
        part = random_partition(rng, net.nL, int(rng.integers(2, 5)))
        q = multiplex_modularity(part, net, deg, gamma)
        tv, balance = balanced_tv_objective(part, net, deg, gamma)
        assert abs(q - (1.0 - (tv + balance) / deg.total_strength)) <= 1e-10
        checked += 1


# ----------------------------------------------------------------------- nmi


def test_nmi_identity_and_relabeling():
    a = P([1, 1, 2, 2, 3])
    assert nmi(a, a) == 1.0
    assert nmi(P([1, 1, 2, 2]), P([2, 2, 1, 1])) == 1.0
    assert nmi(P([1, 2, 1, 2]), P([3, 1, 3, 1], 3)) == 1.0


def test_nmi_independent_labelings_are_zero():
    assert nmi(P([1, 1, 2, 2]), P([1, 2, 1, 2])) == 0.0


def test_nmi_symmetric_and_bounded():
    rng = np.random.default_rng(63)
    for _ in range(30):
        size = int(rng.integers(2, 40))
        a = random_partition(rng, size, int(rng.integers(2, 5)))
        b = random_partition(rng, size, int(rng.integers(2, 5)))
        v = nmi(a, b)
        assert v == nmi(b, a)
        assert 0.0 <= v <= 1.0


def test_nmi_hand_value():
    a = P([1, 1, 2, 2])
    b = P([1, 1, 1, 2])
    # literal formula: counts [[2,0],[1,1]], n=4
    mi = 0.5 * np.log(2 * 4 / (2 * 3)) + 0.25 * np.log(4 / (2 * 3)) + 0.25 * np.log(4 / 2)
    ha = np.log(2.0)
    hb = -(0.75 * np.log(0.75) + 0.25 * np.log(0.25))
    assert nmi(a, b) == pytest.approx(mi / np.sqrt(ha * hb), abs=1e-12)


def test_nmi_zero_entropy_rules():
    flat = P([1, 1, 1], 2)  # one non-empty community, extra empty label
    split = P([1, 2, 1])
    assert nmi(flat, split) == 0.0
    assert nmi(split, flat) == 0.0
    assert nmi(flat, P([2, 2, 2], 2)) == 1.0


def test_nmi_permutation_of_pairs_invariant():
    rng = np.random.default_rng(64)
    a = random_partition(rng, 30, 3)
    b = random_partition(rng, 30, 4)
    perm = rng.permutation(30)
    va = nmi(a, b)
    vb = nmi(Partition(a.assignment[perm], 3), Partition(b.assignment[perm], 4))
    assert va == pytest.approx(vb, abs=1e-15)


def test_nmi_length_mismatch():
    with pytest.raises(ValueError):
        nmi(P([1, 2]), P([1, 2, 1]))


def test_nmi_of_empty_partitions():
    empty = Partition(np.array([], dtype=np.int64), 1)
    with pytest.raises(ValueError, match="^empty partitions$"):
        nmi(empty, empty)


# ------------------------------------------------------------------ accuracy


def test_accuracy_identity():
    rng = np.random.default_rng(65)
    part = random_partition(rng, 25, 4)
    acc, matching = matched_accuracy(part, part)
    assert acc == 1.0
    present = {int(lab) for lab in part.assignment}
    assert matching == {lab: lab for lab in present}


def test_accuracy_worked_example():
    acc, matching = matched_accuracy(P([1, 1, 2, 3]), P([1, 1, 2, 2]))
    assert acc == 0.75
    assert matching == {1: 1, 2: 2}  # size tie 2 vs 3 broken by label; 3 left unmatched


def test_accuracy_majority_match():
    acc, _ = matched_accuracy(P([1, 1, 1, 1], 2), P([1, 1, 2, 2]))
    assert acc == 0.5


def test_accuracy_relabeling_truth_invariant():
    det = P([1, 1, 2, 3])
    acc1, _ = matched_accuracy(det, P([1, 1, 2, 2]))
    acc2, _ = matched_accuracy(det, P([2, 2, 1, 1]))
    assert acc1 == acc2 == 0.75


def test_accuracy_detected_relabeling_same_sizes():
    # swapping two equal-sized detected communities keeps the score
    det1 = P([1, 1, 2, 2, 3])
    det2 = P([2, 2, 1, 1, 3])
    truth = P([1, 1, 2, 2, 2])
    acc1, _ = matched_accuracy(det1, truth)
    acc2, _ = matched_accuracy(det2, truth)
    assert acc1 == acc2


def test_accuracy_length_mismatch():
    with pytest.raises(ValueError):
        matched_accuracy(P([1, 2]), P([1, 2, 1]))


# ------------------------------------------------------- against references


def ranked(p):
    """p with the labels it uses renumbered 1, 2, ... in order, and those labels."""
    used, rank = np.unique(p.assignment, return_inverse=True)
    return Partition(rank + 1, used.size), used


def reference_scores(a, b, rank=False):
    """The dense references' nmi and accuracy bits (as hex) and matching items.
    With ``rank``, or past a small table, they score the ranked labels, which
    keeps every order the greedy match breaks ties by, and name the matching
    in the labels again."""
    if not rank and a.n_c * b.n_c <= 10**6:
        value, (acc, matching) = reference_nmi(a, b), reference_matched_accuracy(a, b)
    else:
        (ra, la), (rb, lb) = ranked(a), ranked(b)
        value, (acc, matching) = reference_nmi(ra, rb), reference_matched_accuracy(ra, rb)
        matching = {int(la[d - 1]): int(lb[t - 1]) for d, t in matching.items()}
    return value.hex(), acc.hex(), list(matching.items())


def random_pair(rng):
    """Two partitions of one size: independent, a noisy copy, or blocks
    whose overlaps tie; each with a few labels left unused."""
    size, na, nb = int(rng.integers(1, 50)), int(rng.integers(1, 9)), int(rng.integers(1, 9))
    kind = rng.integers(3)
    b = rng.integers(1, nb + 1, size)
    if kind == 0:
        a = rng.integers(1, na + 1, size)
    elif kind == 1:
        a, flip = b.copy(), rng.random(size) < 0.3
        a[flip] = rng.integers(1, na + 1, flip.sum())
    else:
        a = np.repeat(rng.integers(1, na + 1, 10), 5)[:size]
        b = np.tile(rng.integers(1, nb + 1, 5), 10)[:size]
    return P(a, int(a.max() + rng.integers(3))), P(b, int(b.max() + rng.integers(3)))


SCORE_CASES = [
    # the third detected community's only overlap is taken: it gets truth 3
    (P([1, 1, 1, 2, 2, 3]), P([1, 1, 3, 2, 2, 1])),
    (P([1, 1, 2, 2]), P([1, 2, 1, 2])),  # ties in size and in overlap
    (P([2, 2, 1, 1, 3, 3]), P([2, 1, 2, 1, 2, 1])),
    (P(np.arange(1, 9)), P([1, 1, 2, 2, 2, 1, 2, 1])),  # more detected than truth
    (P([1, 2, 1, 2, 1]), P(np.arange(1, 6))),  # more truth than detected
    (P([2, 5, 5, 2, 7], 9), P([4, 4, 1, 1, 1], 6)),  # labels left unused
    (P([1, 1, 1], 4), P([3, 3, 3], 3)),
    (P([1, 2**62], 2**62), P([1, 2**62], 2**62)),
    (P([1, 2**62, 2**62, 1], 2**62), P([2**62, 5, 2**62, 2**62], 2**62)),
    (P([3, 2**62, 2**62], 2**62), P([2, 2, 1])),
]


def test_truth_scores_match_the_dense_references():
    # nmi and matched_accuracy read one sparse table of overlaps; the bits
    # and the matching are those of the dense table and the label scans
    rng = np.random.default_rng(91)
    pairs = SCORE_CASES + [random_pair(rng) for _ in range(600)]
    for a, b in pairs + [(b, a) for a, b in pairs]:
        acc, matching = matched_accuracy(a, b)
        assert (nmi(a, b).hex(), acc.hex(), list(matching.items())) == reference_scores(a, b)
        assert all(type(k) is int and type(v) is int for k, v in matching.items())


def test_ranked_reference_scores_as_the_labels_do():
    # the ranked references stand in for the dense ones past a small table
    rng = np.random.default_rng(92)
    for a, b in SCORE_CASES[:7] + [random_pair(rng) for _ in range(200)]:
        assert reference_scores(a, b, rank=True) == reference_scores(a, b)


def test_truth_scores_memory_is_linear():
    # nL = 4000 singletons: a dense contingency table would take 128 MB
    n, L = 2000, 2
    ring = np.arange(n)
    rows, cols = np.r_[ring, (ring + 1) % n], np.r_[(ring + 1) % n, ring]
    layer = SparseSym.from_coo(n, rows, cols, np.ones(2 * n))
    net = MultiplexNetwork(n, L, (layer, layer), all_to_all_coupling(L), 1.0)
    deg = compute_degrees(net)
    part = P(np.arange(1, n * L + 1))
    truth = P(np.random.default_rng(93).permutation(n * L) + 1)
    tracemalloc.start()
    try:
        report = evaluate(part, net, deg, 1.0, truth=truth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.accuracy, report.nmi) == (1.0, 1.0)
    assert peak < 2 * 2**20


# -------------------------------------------------------------------- oracle


def test_oracle_two_triangles(two_triangles):
    net, deg = two_triangles
    q_max, part = oracle_max_modularity(net, deg, 1.0, 2)
    assert q_max == 0.5
    lab = part.assignment
    assert len(set(lab[:3])) == 1 and len(set(lab[3:])) == 1 and lab[0] != lab[3]


def test_oracle_single_community_shortcut(two_triangles, monkeypatch):
    # n_c = 1 has one partition: the oracle must not build the dense matrix
    def dense_matrix_built(*args):
        raise AssertionError("the n_c = 1 oracle built the modularity matrix")

    monkeypatch.setattr(metrics, "modularity_op", dense_matrix_built)
    net, deg = two_triangles
    q, part = oracle_max_modularity(net, deg, 1.0, 1)
    assert q == multiplex_modularity(P(np.ones(6, dtype=int)), net, deg, 1.0)
    assert part.n_c == 1


def test_oracle_degenerate_and_oversized():
    empty = from_dense_layers([np.zeros((2, 2))], omega=0.0)
    with pytest.raises(ValueError, match="strength"):
        oracle_max_modularity(empty, compute_degrees(empty), 1.0, 2)
    rng = np.random.default_rng(66)
    net = random_network(rng, n_max=10, l_max=3)
    deg = compute_degrees(net)
    with pytest.raises(ValueError, match="too large"):
        oracle_max_modularity(net, deg, 1.0, 2)
    with pytest.raises(ValueError, match="^n_c must be >= 1$"):
        oracle_max_modularity(net, deg, 1.0, 0)


def test_oracle_matches_full_enumeration():
    # canonical-label pruning must not change the maximum; nL <= 8 throughout.
    # The fixed instances have an edgeless layer (no null-model term) or
    # omega = 0 (no coupling).
    rng = np.random.default_rng(67)
    cases = []
    for _ in range(5):
        net = random_network(rng, n_max=4, l_max=2)
        cases.append((net, random_gamma(rng, net.L)))
    path = np.diag([1.0, 2.5, 0.5], 1)
    star = np.zeros((4, 4))
    star[0, 1:] = (1.0, 3.0, 0.75)
    path, star = path + path.T, star + star.T
    for layers, omega in (
        ([path, np.zeros((4, 4))], 0.5),
        ([path, star], 0.0),
        ([np.zeros((4, 4)), star], 1.5),
    ):
        cases.append((from_dense_layers(layers, omega=omega), (0.8, 1.3)))
    for net, gamma in cases:
        deg = compute_degrees(net)
        if deg.total_strength <= 0:
            continue
        for n_c in (2, 3):
            q_oracle, part = oracle_max_modularity(net, deg, gamma, n_c)
            brute = max(
                multiplex_modularity(Partition(np.array(lab, dtype=np.int64), n_c), net, deg, gamma)
                for lab in itertools.product(range(1, n_c + 1), repeat=net.nL)
            )
            assert q_oracle == pytest.approx(brute, abs=1e-14)
            assert multiplex_modularity(part, net, deg, gamma) == pytest.approx(brute, abs=1e-14)


def test_oracle_dominates_detect():
    rng = np.random.default_rng(68)
    done = 0
    while done < 8:
        net = random_network(rng, n_max=5, l_max=2)
        deg = compute_degrees(net)
        if deg.total_strength <= 0 or net.nL > 10 or net.nL < 4:
            continue
        gamma = float(rng.uniform(0.5, 1.5))
        q_max, _ = oracle_max_modularity(net, deg, gamma, 2)
        cfg = DetectConfig(
            method="dgfm3", n_c=2, k=min(3, net.nL - 1), gamma=gamma, n_runs=6, seed=done,
        )
        res = detect(net, deg, cfg)
        assert res.best.modularity <= q_max + 1e-12
        done += 1


def brute_force_partition(s, n_c):
    """First maximum, in lexicographic order, over restricted growth strings."""
    best = None
    for lab in itertools.product(range(n_c), repeat=len(s)):
        if any(l > max(lab[:i], default=-1) + 1 for i, l in enumerate(lab)):
            continue  # a relabelling of an earlier string
        val = s[np.equal.outer(lab, lab)].sum()
        if best is None or val > best[0]:
            best = (val, lab)
    return best


@pytest.mark.parametrize("n_c", [2, 3])
def test_enumerate_partitions_matches_brute_force(n_c, monkeypatch):
    rng = np.random.default_rng(69)
    for trial in range(8):
        m = int(rng.integers(1, 8))
        # small integers give exact ties, which test the first-maximum rule
        if trial % 2:
            s = rng.integers(-2, 3, size=(m, m)).astype(float)
        else:
            s = rng.standard_normal((m, m))
        s = s + s.T
        want_val, want_lab = brute_force_partition(s, n_c)
        for chunk in (4096, 3):
            monkeypatch.setattr(_kernels, "_CHUNK", chunk)
            val, lab = _kernels.enumerate_partitions(s, n_c)
            assert val == pytest.approx(want_val, abs=1e-12)
            assert lab.tolist() == list(want_lab)


def test_enumerate_partitions_memory_is_bounded():
    rng = np.random.default_rng(71)
    s = rng.standard_normal((18, 18))
    s = s + s.T
    tracemalloc.start()
    try:
        _kernels.enumerate_partitions(s, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("n_c, m", [(2, 12), (2, 13), (3, 12), (4, 11)])
def test_enumerate_partitions_same_for_any_chunk(n_c, m, monkeypatch):
    # _CHUNK sets the suffix length b (n_c**b <= _CHUNK); entries in {-2..2}
    # make every sum exact, and each case has 2 to 7 maxima, which tests
    # the first-maximum rule across prefix blocks and suffix tables
    rng = np.random.default_rng([n_c, m])
    s = rng.integers(-1, 2, size=(m, m)).astype(float)
    s = s + s.T
    # _CHUNK = 2 and 3 leave suffixes of at most one position and score 16
    # to 48 prefixes per block, tenths of a second per case at n_c > 2;
    # n_c = 2 is enough to cover them
    chunks = (2, 3, 16, 4096) if n_c == 2 else (16, 4096)
    results = []
    for chunk in chunks:
        monkeypatch.setattr(_kernels, "_CHUNK", chunk)
        results.append(_kernels.enumerate_partitions(s, n_c))
    val, lab = results[0]
    assert val == s[np.equal.outer(lab, lab)].sum()
    assert all(l <= max(lab[:i], default=-1) + 1 for i, l in enumerate(lab))
    assert lab.max() < n_c
    for other_val, other_lab in results[1:]:
        assert other_val == val
        assert other_lab.tolist() == lab.tolist()


def test_enumerate_partitions_matches_the_reference(monkeypatch):
    # 1050 instances: value bytes and labels as the earlier kernel's, with
    # small integers for exact ties; _CHUNK = 1 leaves every suffix empty,
    # and scores up to 2**14 prefixes 16 at a time, so it gets fewer
    rng = np.random.default_rng(75)
    for chunk, trials in [(4096, 450), (7, 450), (1, 150)]:
        monkeypatch.setattr(_kernels, "_CHUNK", chunk)
        for trial in range(trials):
            n_c = int(rng.integers(2, 6))
            m = int(rng.integers(1, {2: 16, 3: 11, 4: 9, 5: 8}[n_c]))
            if trial % 2:
                s = rng.integers(-2, 3, size=(m, m)).astype(float)
            else:
                s = rng.standard_normal((m, m))
            s = s + s.T
            want_val, want_lab = reference_enumerate_partitions(s, n_c, chunk)
            val, lab = _kernels.enumerate_partitions(s, n_c)
            assert np.float64(val).tobytes() == np.float64(want_val).tobytes()
            assert lab.tolist() == want_lab.tolist()


def test_suffix_table_lists_every_suffix_with_its_admissibility():
    # every suffix is tabulated and scored, none masked: a string that is not
    # a restricted growth string scores bit for bit as its canonical
    # relabelling, which comes earlier, so the first maximum is canonical
    rng = np.random.default_rng(73)
    s = rng.integers(-2, 3, size=(7, 7)).astype(float)
    s = s + s.T
    for n_c, a in [(2, 1), (2, 3), (3, 2), (4, 4)]:
        y, internal = _kernels._suffix_table(s, n_c, a)
        assert y.tolist() == [list(t) for t in itertools.product(range(n_c), repeat=7 - a)]
        tail = s[a:, a:]
        for lab, score in zip(y, internal):
            assert score == tail[np.equal.outer(lab, lab)].sum()
    s = rng.standard_normal((7, 7))
    for n_c in (2, 3, 4):
        y, internal = _kernels._suffix_table(s, n_c, 0)
        for i, lab in enumerate(y):
            first = {}
            canon = [first.setdefault(l, len(first)) for l in lab]
            j = int(np.ravel_multi_index(canon, (n_c,) * 7))
            assert j <= i and (j == i) == (canon == lab.tolist())
            assert internal[j].tobytes() == internal[i].tobytes()


def test_enumerate_partitions_reads_one_triangle(monkeypatch):
    # the strict lower triangle is never read: NaN there changes no value
    # bit and no label, and raises no warning
    rng = np.random.default_rng(76)
    for chunk in (4096, 7, 1):
        monkeypatch.setattr(_kernels, "_CHUNK", chunk)
        for trial in range(40):
            n_c = int(rng.integers(2, 6))
            m = int(rng.integers(1, {2: 14, 3: 10, 4: 8, 5: 7}[n_c]))
            if trial % 2:
                s = rng.integers(-2, 3, size=(m, m)).astype(float)
            else:
                s = rng.standard_normal((m, m))
            s = s + s.T
            half = s.copy()
            half[np.tril_indices(m, -1)] = np.nan
            val, lab = _kernels.enumerate_partitions(s, n_c)
            half_val, half_lab = _kernels.enumerate_partitions(half, n_c)
            assert np.float64(half_val).tobytes() == np.float64(val).tobytes()
            assert half_lab.tolist() == lab.tolist()


def test_enumerate_partitions_memory_at_the_cli_limit():
    # nL = 23 is the largest that `oracle --nc 2` accepts (2**23 <= 10**7)
    rng = np.random.default_rng(74)
    s = rng.standard_normal((23, 23))
    s = s + s.T
    tracemalloc.start()
    try:
        _kernels.enumerate_partitions(s, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("chunk", [4096, 7])
def test_prefix_bound_covers_every_completion(chunk, monkeypatch):
    # each prefix's bound is at least the best completion that the kernel
    # scores for that prefix alone, less the slack; m reaches the oracle's
    # limit (n_c**m <= 10**7) at _CHUNK = 4096, where a level holds at most
    # 1024 prefixes; at 7 (suffixes of one or two positions) it stops where
    # a level holds about 10**4
    monkeypatch.setattr(_kernels, "_CHUNK", chunk)
    bounds = []
    bound = _kernels._bound

    def spy(score, g, tail):
        out = bound(score, g, tail)
        bounds.append((score, g, out))
        return out

    monkeypatch.setattr(_kernels, "_bound", spy)
    top = {2: 23, 3: 14, 4: 11, 5: 10} if chunk == 4096 else {2: 16, 3: 11, 4: 9, 5: 8}
    rng = np.random.default_rng(77)
    for trial in range(60):
        # the first eight take each n_c at its largest m, once per kind of S
        n_c = 2 + trial // 2 % 4
        m = top[n_c] if trial < 8 else int(rng.integers(2, top[n_c] + 1))
        if trial % 2:
            s = rng.integers(-2, 3, size=(m, m)).astype(float)
        else:
            s = rng.standard_normal((m, m))
        s = s + s.T
        bounds.clear()
        _kernels.enumerate_partitions(s, n_c)
        [(score, g, out)] = bounds
        _, internal = _kernels._suffix_table(s, n_c, m - g.shape[2])
        slack = 1e-9 * np.abs(np.triu(s)).sum()
        bufs = [np.empty(len(internal)) for _ in range(2)]
        for i in range(len(score)):
            t = _kernels._score_prefixes(g[i : i + 1], score[i : i + 1], internal, n_c, bufs)
            assert out[i] >= t.max() - slack


def count_scored_prefixes(monkeypatch):
    """List that receives the number of prefix rows of each scoring call."""
    rows = []
    score_prefixes = _kernels._score_prefixes

    def spy(x, *args):
        rows.append(len(x))
        return score_prefixes(x, *args)

    monkeypatch.setattr(_kernels, "_score_prefixes", spy)
    return rows


def two_block_instance(seed):
    """+1 within and -1 across two shuffled groups of 10, plus 0.3 N(0, 1)."""
    rng = np.random.default_rng(seed)
    group = rng.permutation(np.repeat([0, 1], 10))
    s = np.where(np.equal.outer(group, group), 1.0, -1.0) + 0.3 * rng.standard_normal((20, 20))
    return s + s.T, group


def test_enumerate_partitions_prunes_the_prefixes_below_the_incumbent(monkeypatch):
    # nL = 20 and n_c = 2 leave 128 prefixes of length 8; the incumbent row
    # and at most one more reach the scoring routine, with either triangle
    # alone, and the result is the reference's
    s, group = two_block_instance(78)
    half = s.copy()
    half[np.tril_indices(20, -1)] = np.nan
    want_val, want_lab = reference_enumerate_partitions(s, 2, 4096)
    assert nmi(Partition(want_lab + 1, 2), Partition(group + 1, 2)) == 1.0
    for matrix in (s, half):
        rows = count_scored_prefixes(monkeypatch)
        val, lab = _kernels.enumerate_partitions(matrix, 2)
        assert sum(rows) <= 2
        assert np.float64(val).tobytes() == np.float64(want_val).tobytes()
        assert lab.tolist() == want_lab.tolist()


def test_enumerate_partitions_scores_every_prefix_when_a_bound_is_not_finite(monkeypatch):
    # NaN on the diagonal makes every bound NaN: nothing is pruned
    s, _ = two_block_instance(78)
    s[5, 5] = np.nan
    rows = count_scored_prefixes(monkeypatch)
    val, lab = _kernels.enumerate_partitions(s, 2)
    assert sum(rows) >= 128
    want_val, want_lab = reference_enumerate_partitions(s, 2, 4096)
    assert np.isnan(val) and np.isnan(want_val)
    assert lab.tolist() == want_lab.tolist()


@pytest.mark.parametrize(
    "n_c, m", [(2, 16), (2, 17), (2, 18), (2, 19), (2, 20), (3, 11), (3, 12), (4, 9), (4, 10)]
)
def test_enumerate_partitions_matches_the_reference_on_tied_blocks(n_c, m):
    # two or three identical diagonal blocks of small integers (the last
    # cut to size): many prefixes tie at the maximum, at sizes the
    # 1050-instance test does not reach, so pruning must keep the
    # lexicographically first
    rng = np.random.default_rng([n_c, m, 79])
    k = -(-m // (2 + m % 2))
    block = rng.integers(-2, 3, size=(k, k)).astype(float)
    s = np.kron(np.eye(2 + m % 2), block + block.T)[:m, :m]
    want_val, want_lab = reference_enumerate_partitions(s, n_c, 4096)
    val, lab = _kernels.enumerate_partitions(s, n_c)
    assert np.float64(val).tobytes() == np.float64(want_val).tobytes()
    assert lab.tolist() == want_lab.tolist()


def test_label_edge_sums_match_dense_mask(florentine):
    net, _ = florentine
    rng = np.random.default_rng(70)
    layers = list(net.intra) + [layer for _ in range(3) for layer in random_network(rng).intra]
    for a in layers:
        lab = rng.integers(1, 4, size=a.n)
        dense = toarray(a)
        mask = np.equal.outer(lab, lab)
        same = _kernels.label_edge_sums(a.rows, a.cols, a.data, lab)
        cross = _kernels.label_edge_sums(a.rows, a.cols, a.data, lab, cross=True)
        assert same == pytest.approx(dense[mask].sum(), abs=1e-12)
        assert cross == pytest.approx(dense[~mask].sum(), abs=1e-12)


# ------------------------------------------------------------------ evaluate


def test_evaluate_without_truth(florentine):
    net, deg = florentine
    part = P(florentine_best_assignment())
    report = evaluate(part, net, deg, 0.6)
    assert report.modularity == pytest.approx(70.84 / 104.0, abs=1e-12)
    assert report.n_communities_detected == 3
    assert report.accuracy is None and report.nmi is None and report.matching is None


def test_evaluate_with_truth(florentine):
    net, deg = florentine
    part = P(florentine_best_assignment())
    report = evaluate(part, net, deg, 0.6, truth=part)
    assert report.accuracy == 1.0
    assert report.nmi == 1.0
    assert report.matching == {1: 1, 2: 2, 3: 3}


def test_evaluate_memory_is_linear_for_any_n_c(florentine):
    # labels far above nL are counted by the labels used, not by n_c: the
    # volume penalties and the number of communities take O(nL) memory, and
    # Q is the bits of the same split under labels 1 and 2
    net, deg = florentine
    best = florentine_best_assignment()
    report = evaluate(P(np.where(best == 3, 2**62, 1), 2**62), net, deg, 1.0, truth=P(best))
    assert report.modularity == 0.5455128205128206
    assert report.modularity == multiplex_modularity(P(np.where(best == 3, 2, 1)), net, deg, 1.0)
    assert report.n_communities_detected == 2
    assert report.matching == {1: 2, 2**62: 3}
    tv, balance = balanced_tv_objective(P(np.where(best == 3, 2**62, 1), 2**62), net, deg, 1.0)
    assert report.modularity == pytest.approx(1 - (tv + balance) / deg.total_strength, abs=1e-12)
