"""The public API surface: everything advertised must exist and import."""

import importlib

import pytest

import repro


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ advertises {name}"

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_key_entry_points(self):
        assert callable(repro.simulate)
        assert callable(repro.punctual_factory)
        assert callable(repro.aligned_factory)
        assert callable(repro.certify)


SUBPACKAGES = [
    "repro.channel",
    "repro.sim",
    "repro.core",
    "repro.baselines",
    "repro.workloads",
    "repro.fastpath",
    "repro.analysis",
    "repro.experiments",
    "repro.obs",
    "repro.verify",
    "repro.campaign",
    "repro.stream",
    "repro.adversary",
    "repro.faults",
]


class TestSubpackages:
    @pytest.mark.parametrize("module", SUBPACKAGES)
    def test_all_exports_resolve(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.__all__ advertises {name}"

    @pytest.mark.parametrize("module", SUBPACKAGES)
    def test_public_names_documented(self, module):
        """Every advertised function/class carries a docstring.

        Type aliases (``Callable[...]`` etc.) are exempt — they document
        themselves where they are defined.
        """
        import typing

        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            obj = getattr(mod, name)
            if isinstance(obj, (typing._GenericAlias, typing._SpecialForm)):  # type: ignore[attr-defined]
                continue
            if not (callable(obj) or isinstance(obj, type)):
                continue
            assert obj.__doc__, f"{module}.{name} lacks a docstring"

    def test_layering_channel_does_not_import_core(self):
        """The layering rule of CONTRIBUTING.md, spot-checked."""
        import repro.channel.channel as ch

        import sys
        assert not any(
            m.startswith("repro.core") for m in vars(ch).get("__dependencies__", [])
        )
        # stronger: the channel module's globals reference no core names
        assert not any(
            getattr(v, "__module__", "").startswith("repro.core")
            for v in vars(ch).values()
            if isinstance(v, type)
        )


class TestCliEntryPoint:
    def test_module_main_exists(self):
        import repro.__main__  # noqa: F401
        from repro.cli import main

        assert callable(main)
