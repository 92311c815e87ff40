"""The package's public names: each resolves, and the package re-exports every module's."""

import importlib

import pytest

import hjbverify

# The library modules; ``cli`` exports only its console-script ``main``.
MODULES = ("problem", "hamiltonian", "sde", "hjb", "verify", "benchmarks")


def test_every_package_name_resolves():
    assert len(set(hjbverify.__all__)) == len(hjbverify.__all__)
    missing = [name for name in hjbverify.__all__ if not hasattr(hjbverify, name)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_module_names_are_re_exported(module):
    mod = importlib.import_module(f"hjbverify.{module}")
    for name in mod.__all__:
        assert getattr(hjbverify, name) is getattr(mod, name), name


def test_package_exports_nothing_beyond_its_modules():
    exported = {name for module in MODULES
                for name in importlib.import_module(f"hjbverify.{module}").__all__}
    assert set(hjbverify.__all__) - exported == {"__version__"}
