"""The package's public surface: each module's __all__, exported once, the
equality rule of its records, README's library and command line examples,
the names the benchmark's tracer patches and the basis fields its worker
reads."""

import importlib.util
import re

import numpy as np
import pytest

import mpxmbo
from conftest import DATA_DIR, readme_command_line, readme_section
from mpxmbo import cli, eigensolver, mbo, metrics, network, operators

ROOT = DATA_DIR.parent


def test_package_exports_exactly_the_module_lists():
    exported = mpxmbo.__all__
    assert len(exported) == len(set(exported))
    modules = (eigensolver, mbo, metrics, network, operators)
    listed = [name for module in modules for name in module.__all__]
    assert set(exported) == {"USING_NUMBA", "__version__", *listed}
    for module in modules:
        for name in module.__all__:
            assert getattr(mpxmbo, name) is getattr(module, name), name


def _two_triangles():
    net = mpxmbo.load_network(DATA_DIR / "two_triangles.mpx", omega=0.0)
    return net, mpxmbo.compute_degrees(net)


def _partition():
    return mpxmbo.Partition(np.array([1, 1, 1, 2, 2, 2]), 2)


def _basis():
    return mpxmbo.SpectralBasis(np.array([2.0, 1.0]), np.eye(6)[:, :2], np.zeros(2), "modularity")


def _run():
    return mpxmbo.RunResult(_partition(), 0.5, 2, True)


# one factory per public record; each call builds a fresh one from equal inputs
RECORDS = {
    "Partition": _partition,
    "SparseSym": lambda: mpxmbo.SparseSym.from_coo(2, [0, 1], [1, 0], [1.0, 1.0]),
    "MultiplexNetwork": lambda: _two_triangles()[0],
    "DegreeData": lambda: _two_triangles()[1],
    "LinearOperator": lambda: mpxmbo.modularity_op(*_two_triangles(), 1.0),
    "SpectralBasis": _basis,
    "DetectConfig": lambda: mpxmbo.DetectConfig("dgfm3", 2, 2, gamma=(0.5,)),
    "RunResult": _run,
    "DetectResult": lambda: mpxmbo.DetectResult(_run(), (_run(),), _basis(), 0.0, 0.0),
    "EvalReport": lambda: mpxmbo.evaluate(_partition(), *_two_triangles(), 1.0, truth=_partition()),
}


def test_public_records_follow_one_equality_rule():
    # README "Library": DetectConfig compares by value, every other record by identity
    public = {
        name
        for name in mpxmbo.__all__
        if isinstance(getattr(mpxmbo, name), type) and not issubclass(getattr(mpxmbo, name), Exception)
    }
    assert set(RECORDS) == public
    for name, make in RECORDS.items():
        cls = getattr(mpxmbo, name)
        a, b = make(), make()
        assert type(a) is cls and type(b) is cls, name
        by_value = cls is mpxmbo.DetectConfig
        assert a == a and not a != a, name
        assert (a == b) is by_value and (a != b) is not by_value, name
        assert hash(a) == hash(a) and (hash(a) == hash(b) or not by_value), name


def test_readme_library_examples_run(monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", readme_section("Library"), re.M | re.S)
    assert blocks
    monkeypatch.chdir(ROOT)
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_readme_command_line_example(capsys, monkeypatch, tmp_path):
    # the command of README "Command line", as written there, run where its
    # relative paths resolve, prints the modularity README states
    argv, stated = readme_command_line()
    (tmp_path / "data").symlink_to(DATA_DIR)
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    assert re.search(rf"^modularity: {re.escape(stated)}$", capsys.readouterr().out, re.M)


def test_benchmark_tracer_names_resolve():
    # perfbench/spans.py wraps each (module, attribute) of TARGETS when its
    # Tracer installs, and perfbench/worker.py records USING_NUMBA: a name
    # dropped from the package would crash every benchmark run
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    import mpxmbo.cli  # noqa: F401  (as the Tracer does, so that cli is an attribute)

    refs = [ref for _, refs in spans.TARGETS for ref in refs]
    assert refs
    for owner, attr in refs:
        assert callable(getattr(spans._resolve(mpxmbo, owner), attr)), (owner, attr)
    assert isinstance(mpxmbo.USING_NUMBA, bool)


@pytest.mark.parametrize("method", ["mpbtv", "dgfm3"])
def test_benchmark_worker_residual_reads_the_basis(florentine, method):
    # perfbench/worker.py rebuilds the solved operator from basis.shift and
    # shifted_neg_lk_op's sigma at --trace 1; a change to either would
    # corrupt its residual metric
    spec = importlib.util.spec_from_file_location("worker", ROOT / "perfbench" / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    net, deg = florentine
    gamma = np.ones(net.L)
    b = mpxmbo.basis_for_method(method, net, deg, gamma, 4)
    value = worker.max_rel_residual(b.eigenvalues, b.eigenvectors, net, deg, gamma, b.shift)
    assert np.isfinite(value) and value <= 1e-8
