"""Unit tests for the network configuration and cluster presets."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.ledger.kvstore import COUCHDB_PROFILE, LEVELDB_PROFILE
from repro.network.config import CLUSTER_PRESETS, DatabaseType, NetworkConfig, TimingProfile


def test_cluster_presets_match_paper_section_4_2():
    c1 = CLUSTER_PRESETS["C1"]
    c2 = CLUSTER_PRESETS["C2"]
    assert (c1.orgs, c1.peers_per_org, c1.clients) == (2, 2, 5)
    assert (c2.orgs, c2.peers_per_org, c2.clients) == (8, 4, 25)
    assert c2.worker_nodes == 32


def test_defaults_follow_table_3():
    config = NetworkConfig()
    assert config.block_size == 100
    assert config.endorsement_policy == "P0"
    assert DatabaseType.parse(config.database) is DatabaseType.COUCHDB
    assert config.block_timeout == pytest.approx(2.0)


def test_cluster_defaults_fill_unset_fields():
    config = NetworkConfig(cluster="C2")
    assert config.orgs == 8
    assert config.peers_per_org == 4
    assert config.clients == 25


def test_explicit_values_override_cluster_defaults():
    config = NetworkConfig(cluster="C2", orgs=4, clients=3)
    assert config.orgs == 4
    assert config.clients == 3
    assert config.peers_per_org == 4


def test_unknown_cluster_rejected():
    with pytest.raises(ConfigurationError):
        NetworkConfig(cluster="C9")


def test_database_parsing():
    assert DatabaseType.parse("LevelDB") is DatabaseType.LEVELDB
    assert DatabaseType.parse(DatabaseType.COUCHDB) is DatabaseType.COUCHDB
    with pytest.raises(ConfigurationError):
        DatabaseType.parse("mongodb")


def test_database_profiles_exposed():
    assert NetworkConfig(database="leveldb").database_profile is LEVELDB_PROFILE
    assert NetworkConfig(database="couchdb").database_profile is COUCHDB_PROFILE
    assert DatabaseType.LEVELDB.profile is LEVELDB_PROFILE


@pytest.mark.parametrize(
    "overrides",
    [
        {"orgs": 0},
        {"peers_per_org": 0},
        {"endorsers_per_org": 5},
        {"clients": 0},
        {"orderers": 0},
        {"block_size": 0},
        {"block_timeout": 0.0},
        {"block_max_bytes": 10},
        {"induced_delay": -1.0},
        {"delayed_orgs": (9,)},
        {"resource_factor": 0.0},
    ],
)
def test_validate_rejects_bad_values(overrides):
    config = NetworkConfig(cluster="C1", **overrides)
    with pytest.raises(ConfigurationError):
        config.validate()


def test_validate_accepts_defaults():
    NetworkConfig(cluster="C1").validate()
    NetworkConfig(cluster="C2").validate()


def test_copy_overrides_fields_without_mutating_original():
    config = NetworkConfig(cluster="C1")
    changed = config.copy(block_size=42)
    assert changed.block_size == 42
    assert config.block_size == 100
    assert changed.cluster == "C1"


def test_describe_mentions_key_parameters():
    text = NetworkConfig(cluster="C2", block_size=50).describe()
    assert "C2" in text
    assert "block_size=50" in text
    assert "couchdb" in text


def test_timing_profile_defaults_are_positive():
    timing = TimingProfile()
    for field_name, value in vars(timing).items():
        if isinstance(value, (int, float)):
            assert value > 0, field_name


@pytest.mark.parametrize(
    "field_name, value",
    [
        ("delivery_jitter", -0.5),
        ("net_jitter", float("nan")),
        ("orderer_per_block", float("inf")),
        ("endorsement_concurrency", 0),
        ("endorsement_concurrency", 2.5),
    ],
)
def test_an_invalid_timing_constant_is_rejected_naming_it(field_name, value):
    config = NetworkConfig(timing=TimingProfile(**{field_name: value}))
    with pytest.raises(ConfigurationError, match=f"timing.{field_name} must be"):
        config.validate()


def test_zero_latencies_are_valid_timing():
    zero = {field.name: 0.0 for field in dataclasses.fields(TimingProfile)}
    NetworkConfig(timing=TimingProfile(**{**zero, "endorsement_concurrency": 1})).validate()


def test_resource_factor_comes_from_cluster():
    assert NetworkConfig(cluster="C1").resource_factor == CLUSTER_PRESETS["C1"].resource_factor
    assert NetworkConfig(cluster="C2").resource_factor == CLUSTER_PRESETS["C2"].resource_factor
    assert NetworkConfig(cluster="C1", resource_factor=2.0).resource_factor == 2.0
