"""Unit tests for endorsement policies (paper Table 5) and the latency model."""

from __future__ import annotations


import pytest

from repro.errors import EndorsementPolicyError
from repro.network.config import NetworkConfig, TimingProfile
from repro.network.endorsement import (
    NOutOf,
    SignedBy,
    build_policy,
    policy_p0,
    policy_p1,
    policy_p2,
    policy_p3,
    standard_policies,
    vscc_validation_cost,
)
from repro.network.latency import LatencyModel


# --------------------------------------------------------------------- policies
def test_p0_requires_every_organization():
    policy = policy_p0(4)
    assert policy.evaluate({0, 1, 2, 3})
    assert not policy.evaluate({0, 1, 2})
    assert policy.min_signatures() == 4
    assert policy.subpolicy_count() == 0


def test_p1_requires_org0_plus_any_other():
    policy = policy_p1(4)
    assert policy.evaluate({0, 3})
    assert policy.evaluate({0, 1})
    assert not policy.evaluate({1, 2})
    assert policy.min_signatures() == 2
    assert policy.subpolicy_count() == 1


def test_p2_requires_one_from_each_half():
    policy = policy_p2(8)
    assert policy.evaluate({0, 7})
    assert policy.evaluate({4, 5})
    assert not policy.evaluate({0, 1})
    assert not policy.evaluate({6, 7})
    assert policy.min_signatures() == 2
    assert policy.subpolicy_count() == 2


def test_p3_requires_a_quorum():
    policy = policy_p3(8)
    assert policy.min_signatures() == 5
    assert policy.evaluate({0, 1, 2, 3, 4})
    assert not policy.evaluate({0, 1, 2, 3})


def test_p2_with_two_organizations():
    policy = policy_p2(2)
    assert policy.evaluate({0, 1})
    assert not policy.evaluate({0})


def test_select_orgs_always_satisfies_policy(rng):
    for orgs in (2, 4, 8):
        for name, policy in standard_policies(orgs).items():
            for _ in range(20):
                selected = policy.select_orgs(rng)
                assert policy.evaluate(selected), f"{name} with {orgs} orgs"
                assert max(selected) < orgs


def test_standard_policies_cover_table5():
    policies = standard_policies(8)
    assert set(policies) == {"P0", "P1", "P2", "P3"}
    # With a single organization only P0 and P3 are definable.
    assert set(standard_policies(1)) == {"P0", "P3"}


def test_describe_is_human_readable():
    text = policy_p1(3).describe()
    assert "2-of" in text
    assert "signed-by:0" in text


def test_n_out_of_validation():
    with pytest.raises(EndorsementPolicyError):
        NOutOf(n=0, children=(SignedBy(0),))
    with pytest.raises(EndorsementPolicyError):
        NOutOf(n=3, children=(SignedBy(0), SignedBy(1)))
    with pytest.raises(EndorsementPolicyError):
        NOutOf(n=1, children=())


def test_build_policy_by_name_and_instance():
    policy = build_policy("p0", 4)
    assert policy.min_signatures() == 4
    custom = NOutOf(n=1, children=(SignedBy(0), SignedBy(1)))
    assert build_policy(custom, 4) is custom
    with pytest.raises(EndorsementPolicyError):
        build_policy("P9", 4)
    with pytest.raises(EndorsementPolicyError):
        build_policy(NOutOf(n=1, children=(SignedBy(7),)), 4)


def test_organizations_listed():
    assert policy_p0(3).organizations() == {0, 1, 2}
    assert SignedBy(2).organizations() == {2}


def test_vscc_cost_grows_with_signatures_and_subpolicies():
    timing = TimingProfile()
    cheap = vscc_validation_cost(policy_p0(2), signature_count=2, timing=timing)
    more_signatures = vscc_validation_cost(policy_p0(8), signature_count=8, timing=timing)
    subpolicies = vscc_validation_cost(policy_p2(8), signature_count=2, timing=timing)
    assert more_signatures > cheap
    assert subpolicies > vscc_validation_cost(policy_p0(8), signature_count=2, timing=timing)


# ----------------------------------------------------------------------- latency
def test_latency_is_positive_and_near_base(rng):
    config = NetworkConfig(cluster="C1")
    model = LatencyModel(config, rng)
    samples = [model.one_way(None, 0) for _ in range(200)]
    assert all(sample >= 0 for sample in samples)
    assert min(samples) >= config.timing.net_one_way - config.timing.net_jitter - 1e-9
    assert max(samples) <= config.timing.net_one_way + config.timing.net_jitter + 1e-9


def test_delayed_org_gets_extra_latency(rng):
    config = NetworkConfig(cluster="C1", delayed_orgs=(1,), induced_delay=0.1)
    model = LatencyModel(config, rng)
    normal = model.one_way(None, 0)
    delayed = model.one_way(None, 1)
    delayed_as_source = model.one_way(1, None)
    assert delayed > normal + 0.05
    assert delayed_as_source > normal + 0.05
