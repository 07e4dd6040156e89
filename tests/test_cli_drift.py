"""Registry ↔ CLI drift guards.

The protocol zoo grows; hand-typed ``choices=`` lists silently rot (a
protocol registered in :mod:`repro.registry` but missing from a
subcommand is invisible to users, and a choice typed into the CLI but
absent from the registry fails only at dispatch).  Every ``--protocol``
and ``--workload`` choices list is now *derived* from the registry;
these tests pin that invariant by walking the built parser, so the next
protocol added to ``registry.PROTOCOLS`` flows through every subcommand
— or this file fails naming the drifted flag.  Adversary families follow
the same rule: ``--families`` and ``--fault`` are checked against, and
described from, the catalogue :data:`repro.adversary.FAMILIES`.
"""

import argparse

import pytest

from repro import registry
from repro.adversary import FAMILIES
from repro.cli import build_parser, main
from repro.workloads import batch_instance


def _subcommands():
    parser = build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    raise AssertionError("repro parser has no subcommands")


def _choices(subparser, flag):
    for action in subparser._actions:
        if flag in action.option_strings:
            return action.choices
    return None


class TestProtocolChoices:
    def test_simulate_and_sweep_offer_every_protocol(self):
        subs = _subcommands()
        for cmd in ("simulate", "sweep"):
            choices = _choices(subs[cmd], "--protocol")
            assert choices is not None, cmd
            assert tuple(choices) == registry.PROTOCOLS, (
                f"'{cmd} --protocol' choices drifted from "
                f"registry.PROTOCOLS"
            )

    def test_stream_offers_exactly_the_streamable_protocols(self):
        subs = _subcommands()
        choices = _choices(subs["stream"], "--protocol")
        assert choices is not None
        assert tuple(choices) == registry.STREAM_PROTOCOLS, (
            "'stream --protocol' choices drifted from "
            "registry.STREAM_PROTOCOLS"
        )

    def test_stream_exclusions_are_registered(self):
        # the exclusion set must stay a subset of the registry, and the
        # streamable set must be exactly the complement
        assert set(registry.INSTANCE_PROTOCOLS) <= set(registry.PROTOCOLS)
        assert set(registry.STREAM_PROTOCOLS) == (
            set(registry.PROTOCOLS) - set(registry.INSTANCE_PROTOCOLS)
        )

    def test_every_default_is_offered(self):
        subs = _subcommands()
        for cmd in ("simulate", "sweep", "stream"):
            sp = subs[cmd]
            for action in sp._actions:
                if "--protocol" in action.option_strings:
                    assert action.default in action.choices, cmd

    def test_multi_protocol_defaults_resolve(self):
        # certify/robustness/frontier take comma-separated names with no
        # argparse choices= — their defaults must still resolve
        subs = _subcommands()
        for cmd in ("certify", "robustness", "frontier"):
            sp = subs[cmd]
            for action in sp._actions:
                if "--protocols" in action.option_strings:
                    for name in action.default.split(","):
                        assert name in registry.PROTOCOLS, (cmd, name)


class TestWorkloadChoices:
    def test_every_subcommand_offers_every_workload(self):
        for cmd, sp in _subcommands().items():
            choices = _choices(sp, "--workload")
            if choices is None:
                continue  # subcommand takes no workload (report, runs, ...)
            assert tuple(choices) == registry.WORKLOADS, (
                f"'{cmd} --workload' choices drifted from "
                f"registry.WORKLOADS"
            )


class TestFamilyChoices:
    """``--families`` and ``--fault`` speak the adversary catalogue."""

    FLAGS = (
        ("robustness", "--families"),
        ("certify", "--families"),
        ("simulate", "--fault"),
        ("stream", "--fault"),
    )

    def _action(self, cmd, flag):
        for action in _subcommands()[cmd]._actions:
            if flag in action.option_strings:
                return action
        raise AssertionError(f"'{cmd}' has no {flag}")

    def test_default_families_are_in_the_catalogue(self):
        for cmd in ("robustness", "certify"):
            default = self._action(cmd, "--families").default
            for name in default.split(","):
                assert name in FAMILIES, (cmd, name)

    def test_every_help_text_names_every_family(self):
        for cmd, flag in self.FLAGS:
            text = self._action(cmd, flag).help
            for name in FAMILIES:
                assert name in text, (cmd, flag, name)

    def test_reactive_faults_run(self, capsys):
        rc = main(
            [
                "simulate",
                "--workload", "batch",
                "--n", "6",
                "--window", "512",
                "--protocol", "uniform",
                "--fault", "struct-delivery:0.2",
            ]
        )
        assert rc == 0
        assert main(["stream", "--max-jobs", "20", "--fault", "reactive:0.2"]) == 0
        assert "released=20" in capsys.readouterr().out


class TestRegistryCompleteness:
    def test_every_protocol_has_a_factory(self):
        inst = batch_instance(4, window=512)
        factories = registry.protocol_factories({}, inst)
        # aligned batch instance at min_level: every registered name
        # must resolve
        assert set(registry.PROTOCOLS) <= set(factories)

    def test_modern_zoo_registered(self):
        for name in ("soft", "slowfb", "nocd"):
            assert name in registry.PROTOCOLS
            assert name in registry.STREAM_PROTOCOLS

    @pytest.mark.parametrize("name", registry.STREAM_PROTOCOLS)
    def test_streamable_factories_need_no_instance(self, name):
        # the streaming engine resolves factories against an empty
        # instance — every streamable protocol must tolerate that
        from repro.sim.instance import Instance

        factories = registry.protocol_factories({}, Instance(()))
        assert name in factories
