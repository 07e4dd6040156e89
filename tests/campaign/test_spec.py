"""Campaign spec parsing, validation, grid expansion, and digests."""

import json
import pickle

import pytest

from repro.campaign.spec import (
    AdversarySpec,
    CampaignSpec,
    GridWorkload,
    POISON_WORKLOAD,
)
from repro.errors import InvalidParameterError

BASE = {
    "name": "t",
    "workloads": ["batch", "single-class"],
    "protocols": ["punctual", "beb"],
    "adversaries": ["none", {"family": "jam", "severity": 0.5}],
    "seeds": 3,
    "knobs": {"n": 4, "window": 256},
}


class TestParsing:
    def test_minimal_spec(self):
        spec = CampaignSpec.from_dict(
            {"name": "x", "workloads": ["batch"], "protocols": ["punctual"]}
        )
        assert spec.name == "x"
        assert len(spec.cells()) == 1

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown campaign"):
            CampaignSpec.from_dict({**BASE, "workloadz": ["batch"]})

    def test_unknown_workload_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown workload"):
            CampaignSpec.from_dict({**BASE, "workloads": ["nope"]})

    def test_unknown_protocol_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown protocol"):
            CampaignSpec.from_dict({**BASE, "protocols": ["nope"]})

    def test_bad_adversary_string_rejected(self):
        with pytest.raises(InvalidParameterError):
            CampaignSpec.from_dict({**BASE, "adversaries": ["garbage"]})

    def test_unknown_fault_family_rejected(self):
        with pytest.raises(InvalidParameterError, match="adversary family"):
            CampaignSpec.from_dict({**BASE, "adversaries": ["nope@0.5"]})

    def test_severity_out_of_range_rejected(self):
        with pytest.raises(InvalidParameterError, match="severity"):
            CampaignSpec.from_dict({**BASE, "adversaries": ["jam@1.5"]})

    def test_adversary_shorthand_equals_mapping(self):
        a = CampaignSpec.from_dict({**BASE, "adversaries": ["jam@0.5"]})
        b = CampaignSpec.from_dict(
            {**BASE, "adversaries": [{"family": "jam", "severity": 0.5}]}
        )
        assert a.adversaries == b.adversaries

    def test_bad_executor_rejected(self):
        with pytest.raises(InvalidParameterError, match="executor"):
            CampaignSpec.from_dict({**BASE, "executor": "cloud"})

    def test_zero_seeds_rejected(self):
        with pytest.raises(InvalidParameterError, match="seeds"):
            CampaignSpec.from_dict({**BASE, "seeds": 0})

    def test_unknown_chaos_key_rejected(self):
        with pytest.raises(InvalidParameterError, match="chaos"):
            CampaignSpec.from_dict({**BASE, "chaos": {"explode": True}})


class TestFromFile:
    def test_yaml_and_json_parse_identically(self, tmp_path):
        import yaml

        y = tmp_path / "c.yaml"
        j = tmp_path / "c.json"
        y.write_text(yaml.safe_dump(BASE))
        j.write_text(json.dumps(BASE))
        assert (
            CampaignSpec.from_file(y).digest()
            == CampaignSpec.from_file(j).digest()
        )

    def test_relative_paths_resolve_against_spec_dir(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({**BASE, "state": "s.jsonl", "cache": "cc"}))
        spec = CampaignSpec.from_file(p)
        assert spec.state_path == tmp_path / "s.jsonl"
        assert spec.cache_path == tmp_path / "cc"

    def test_default_state_path_uses_campaign_name(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(BASE))
        assert CampaignSpec.from_file(p).state_path == (
            tmp_path / "t.campaign.jsonl"
        )

    def test_missing_file_is_a_clean_error(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="cannot read"):
            CampaignSpec.from_file(tmp_path / "absent.yaml")

    def test_empty_yaml_rejected(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("")
        with pytest.raises(InvalidParameterError, match="empty"):
            CampaignSpec.from_file(p)


class TestYamlBooleans:
    @pytest.mark.parametrize("word,fastpath", [("off", "off"), ("on", "on")])
    def test_bare_on_off_fastpath(self, tmp_path, word, fastpath):
        path = tmp_path / "spec.yaml"
        path.write_text(
            "workloads: [batch]\nprotocols: [uniform]\n"
            f"fastpath: {word}\n"
        )
        assert CampaignSpec.from_file(path).fastpath == fastpath


class TestGrid:
    def test_cross_product_size_and_order(self):
        spec = CampaignSpec.from_dict(BASE)
        cells = spec.cells()
        assert len(cells) == 2 * 2 * 2
        assert [c.index for c in cells] == list(range(8))
        # workload-major order: first half is batch, second single-class
        assert all(c.workload.name == "batch" for c in cells[:4])
        assert all(c.workload.name == "single-class" for c in cells[4:])

    def test_every_cell_shares_the_seed_range(self):
        spec = CampaignSpec.from_dict({**BASE, "seeds": 3, "seed_base": 10})
        for cell in spec.cells():
            assert cell.seeds == (10, 11, 12)

    def test_cell_keys_are_distinct_and_stable(self):
        a = CampaignSpec.from_dict(BASE).cells()
        b = CampaignSpec.from_dict(BASE).cells()
        keys_a = [c.key() for c in a]
        keys_b = [c.key() for c in b]
        assert keys_a == keys_b
        assert len(set(keys_a)) == len(keys_a)

    def test_cells_are_picklable(self):
        cell = CampaignSpec.from_dict(BASE).cells()[0]
        clone = pickle.loads(pickle.dumps(cell))
        assert clone.key() == cell.key()

    def test_labels_are_readable(self):
        labels = [c.label() for c in CampaignSpec.from_dict(BASE).cells()]
        assert "batch/punctual/none" in labels
        assert "single-class/beb/jam@0.5" in labels


class TestDigest:
    def test_grid_fields_change_the_digest(self):
        base = CampaignSpec.from_dict(BASE).digest()
        assert CampaignSpec.from_dict({**BASE, "seeds": 4}).digest() != base
        assert (
            CampaignSpec.from_dict({**BASE, "protocols": ["punctual"]})
            .digest()
            != base
        )

    def test_execution_knobs_do_not_change_the_digest(self):
        # A campaign may be resumed with different workers/retries/paths.
        base = CampaignSpec.from_dict(BASE).digest()
        varied = CampaignSpec.from_dict(
            {
                **BASE,
                "workers": 7,
                "retries": 9,
                "executor": "serial",
                "state": "elsewhere.jsonl",
                "chaos": {"kill_after_cells": 1},
            }
        )
        assert varied.digest() == base


class TestPoison:
    def test_poison_is_accepted_in_specs(self):
        spec = CampaignSpec.from_dict(
            {**BASE, "workloads": [{"workload": POISON_WORKLOAD}]}
        )
        assert spec.cells()[0].workload.name == POISON_WORKLOAD

    def test_poison_fails_deterministically_at_build(self):
        w = GridWorkload(items=(("workload", POISON_WORKLOAD),))
        with pytest.raises(RuntimeError, match="poison"):
            w()

    def test_poison_cell_still_has_a_key(self):
        spec = CampaignSpec.from_dict(
            {**BASE, "workloads": [{"workload": POISON_WORKLOAD}]}
        )
        assert all(len(c.key()) == 64 for c in spec.cells())


class TestAdversary:
    def test_none_has_no_faults(self):
        assert AdversarySpec().faults() is None
        assert AdversarySpec().label == "none"

    def test_severity_builds_the_family_plan(self):
        plan = AdversarySpec(family="jam", severity=0.5).faults()
        assert plan is not None and not plan.is_noop

    def test_every_catalogue_family_is_accepted(self):
        spec = CampaignSpec.from_dict(
            {**BASE, "adversaries": ["struct-delivery@0.2", "banked@0.3"]}
        )
        assert [a.label for a in spec.adversaries] == [
            "struct-delivery@0.2",
            "banked@0.3",
        ]


class TestRepeatedCells:
    """A grid holds each cell once; every clean channel is the same cell."""

    def test_severity_zero_is_the_clean_channel(self):
        for entry in ("rate@0", {"family": "feedback", "severity": 0}):
            spec = CampaignSpec.from_dict({**BASE, "adversaries": [entry]})
            assert spec.adversaries == (AdversarySpec(),)

    def test_unknown_family_rejected_at_severity_zero(self):
        with pytest.raises(InvalidParameterError, match="adversary family"):
            CampaignSpec.from_dict(
                {**BASE, "adversaries": [{"family": "cosmic", "severity": 0}]}
            )

    def test_clean_channel_spelled_twice_is_rejected(self):
        with pytest.raises(
            InvalidParameterError, match="repeats cell 'batch/punctual/none'"
        ):
            CampaignSpec.from_dict(
                {**BASE, "adversaries": ["none", "jam@0", "rate@0"]}
            )

    def test_repeated_protocol_is_rejected(self):
        with pytest.raises(
            InvalidParameterError, match="repeats cell 'batch/uniform/none'"
        ):
            CampaignSpec.from_dict(
                {**BASE, "protocols": ["uniform", "uniform"],
                 "adversaries": ["none"]}
            )
