"""Tests for the protocol registry."""

import dataclasses

import pytest

from repro.protocols import registry
from repro.protocols.registry import (
    feature_table,
    protocol_by_name,
    spec_with_overrides,
)
from repro.protocols.runtime import RaftGlobalPhase, StageOverrides


class TestProtocolByName:
    def test_unknown_name_raises_with_known_names(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            protocol_by_name("hotstuff")
        with pytest.raises(ValueError, match="massbft"):
            protocol_by_name("")

    def test_case_insensitive(self):
        assert protocol_by_name("MassBFT") == protocol_by_name("massbft")

    def test_ebr_plus_a_aliases_massbft(self):
        assert protocol_by_name("ebr+a").name == "MassBFT"

    def test_field_overrides(self):
        spec = protocol_by_name("massbft", ordering="round", overlap_vts=False)
        assert spec.ordering == "round"
        assert not spec.overlap_vts

    def test_stage_override_lands_in_stage_overrides(self):
        class MyPhase(RaftGlobalPhase):
            pass

        spec = protocol_by_name("massbft", global_phase=MyPhase)
        assert isinstance(spec.stages, StageOverrides)
        assert spec.stages.global_phase is MyPhase
        assert spec.stages.transport is None
        # Stage factories don't participate in spec equality.
        assert spec == protocol_by_name("massbft")

    def test_spec_with_overrides_mixes_fields_and_stages(self):
        spec = spec_with_overrides(
            protocol_by_name("baseline"), ordering="async", orderer=object
        )
        assert spec.ordering == "async"
        assert spec.stages.orderer is object


class TestFeatureTable:
    def test_rows_match_registered_specs(self):
        table = feature_table()
        specs = {
            name: registry._FACTORIES[name.lower()]() for name in table
        }
        for name, row in table.items():
            spec = specs[name]
            assert row["multi_master"] == ("Y" if spec.multi_master else "N")
            assert row["coding"] == (
                "Erasure-coded" if spec.transport == "encoded" else "Entire block"
            )
            expected_consensus = {
                "none": "Broadcast",
                "serial": "Raft",
                "raft": "Raft+Epoch" if spec.epoch_slots else "Raft",
            }[spec.global_consensus]
            assert row["consensus"] == expected_consensus

    def test_every_named_factory_has_a_row(self):
        table = feature_table()
        for name in ("massbft", "baseline", "geobft", "steward", "iss", "br", "ebr"):
            assert protocol_by_name(name).name in table


class TestProtocolSpec:
    def test_spec_is_frozen_with_stage_slot(self):
        spec = protocol_by_name("massbft")
        assert spec.stages is None
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.name = "x"
