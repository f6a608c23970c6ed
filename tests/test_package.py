"""The package's public surface: each module's __all__, exported once."""

import mpxmbo
from mpxmbo import eigensolver, mbo, metrics, network, operators


def test_package_exports_exactly_the_module_lists():
    exported = mpxmbo.__all__
    assert len(exported) == len(set(exported))
    modules = (eigensolver, mbo, metrics, network, operators)
    listed = [name for module in modules for name in module.__all__]
    assert set(exported) == {"USING_NUMBA", "__version__", *listed}
    for module in modules:
        for name in module.__all__:
            assert getattr(mpxmbo, name) is getattr(module, name), name
