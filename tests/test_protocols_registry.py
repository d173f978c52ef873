"""Tests for the protocol registry."""

import dataclasses

import pytest

from repro.protocols import registry
from repro.protocols.registry import feature_table, massbft, protocol_by_name
from repro.protocols.runtime import ProtocolSpec


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
        spec = dataclasses.replace(protocol_by_name("massbft"), ordering="round")
        assert spec.ordering == "round"
        assert not massbft(overlap_vts=False).overlap_vts
        # replace() re-validates: async ordering needs global Raft.
        with pytest.raises(ValueError, match="requires global Raft"):
            dataclasses.replace(protocol_by_name("geobft"), ordering="async")

    def test_takes_only_a_name(self):
        with pytest.raises(TypeError):
            protocol_by_name("massbft", ordering="round")


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
    def test_spec_is_frozen_without_stage_slot(self):
        spec = protocol_by_name("massbft")
        assert "stages" not in {f.name for f in dataclasses.fields(ProtocolSpec)}
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.name = "x"
