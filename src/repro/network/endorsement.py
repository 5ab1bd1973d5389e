"""Endorsement policies (paper Table 5).

A policy is a tree of ``signed-by`` leaves and ``n-of`` interior nodes.  An
``n-of`` clause nested inside another ``n-of`` clause is called a *sub-policy*;
the paper shows that both the number of required signatures and the number of
sub-policies increase endorsement policy failures and latency (Figure 13).

The four standard policies of Table 5 are provided as factories:

* ``P0`` — ``N-of`` all organizations (every organization must endorse),
* ``P1`` — Org0 plus any one of the remaining organizations (one sub-policy),
* ``P2`` — one organization from the first half and one from the second half
  (two sub-policies),
* ``P3`` — a quorum of ``N/2 + 1`` organizations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Set, Tuple

from repro.errors import EndorsementPolicyError
from repro.network.config import TimingProfile


class PolicyNode:
    """Base class of endorsement-policy expressions."""

    def evaluate(self, signed_orgs: Set[int]) -> bool:
        """True when the set of signing organizations satisfies the policy."""
        raise NotImplementedError

    def organizations(self) -> Set[int]:
        """All organizations mentioned anywhere in the policy."""
        raise NotImplementedError

    def min_signatures(self) -> int:
        """Minimum number of organization signatures that can satisfy the policy."""
        raise NotImplementedError

    def subpolicy_count(self) -> int:
        """Number of nested ``n-of`` clauses (sub-policies, Table 5 note)."""
        raise NotImplementedError

    def select_orgs(self, rng: random.Random) -> Set[int]:
        """A minimal satisfying set of organizations, chosen at random.

        Clients use this to decide which organizations' endorsing peers should
        receive the transaction proposal.
        """
        raise NotImplementedError

    def org_selector(self, rng: random.Random) -> Callable[[], Sequence[int]]:
        """:meth:`select_orgs` bound to one stream, in ascending order.

        Clients build it once and call it per attempt.
        """
        select_orgs = self.select_orgs
        return lambda: sorted(select_orgs(rng))

    def describe(self) -> str:
        """Human-readable policy expression (Table 5 style)."""
        raise NotImplementedError


@dataclass(frozen=True)
class SignedBy(PolicyNode):
    """Leaf: a specific organization must sign."""

    org: int

    def evaluate(self, signed_orgs: Set[int]) -> bool:
        return self.org in signed_orgs

    def organizations(self) -> Set[int]:
        return {self.org}

    def min_signatures(self) -> int:
        return 1

    def subpolicy_count(self) -> int:
        return 0

    def select_orgs(self, rng: random.Random) -> Set[int]:
        return {self.org}

    def describe(self) -> str:
        return f"signed-by:{self.org}"


@dataclass(frozen=True)
class NOutOf(PolicyNode):
    """Interior node: at least ``n`` of the child policies must be satisfied."""

    n: int
    children: Tuple[PolicyNode, ...]

    def __post_init__(self) -> None:
        if not self.children:
            raise EndorsementPolicyError("an n-of clause needs at least one child policy")
        if not 1 <= self.n <= len(self.children):
            raise EndorsementPolicyError(
                f"n-of clause requires n between 1 and {len(self.children)}, got {self.n}"
            )

    def evaluate(self, signed_orgs: Set[int]) -> bool:
        satisfied = sum(1 for child in self.children if child.evaluate(signed_orgs))
        return satisfied >= self.n

    def organizations(self) -> Set[int]:
        orgs: Set[int] = set()
        for child in self.children:
            orgs |= child.organizations()
        return orgs

    def min_signatures(self) -> int:
        costs = sorted(child.min_signatures() for child in self.children)
        return sum(costs[: self.n])

    def subpolicy_count(self) -> int:
        nested = sum(1 for child in self.children if isinstance(child, NOutOf))
        return nested + sum(child.subpolicy_count() for child in self.children)

    def select_orgs(self, rng: random.Random) -> Set[int]:
        # ``sample`` accepts any sequence and its draws depend only on the
        # population length, so sampling the children tuple directly is
        # draw-identical to the former ``list(self.children)`` copy.
        chosen_children = rng.sample(self.children, self.n)
        orgs: Set[int] = set()
        for child in chosen_children:
            orgs |= child.select_orgs(rng)
        return orgs

    def org_selector(self, rng: random.Random) -> Callable[[], Sequence[int]]:
        count = len(self.children)
        if (
            type(rng) is not random.Random
            or self.n != count
            or not all(type(child) is SignedBy for child in self.children)
        ):
            return super().org_selector(rng)
        # Every organization must sign (P0, the paper's default): with
        # ``k == len(population)`` CPython's ``sample`` takes its pool path —
        # ``_randbelow(count - i)`` for ``i`` in ``range(count)`` — and returns
        # a permutation of all the leaves, so the answer is known in advance
        # and only the draws are replayed: ``_randbelow_with_getrandbits(n)``
        # is ``getrandbits(n.bit_length())`` until the value is below ``n``.
        # Only the stdlib generator itself is known to draw this way (a
        # subclass may override the uniform source, a test double anything).
        everyone = tuple(sorted(self.organizations()))
        draws = [(size, size.bit_length()) for size in range(count, 0, -1)]
        getrandbits = rng.getrandbits

        def select_everyone() -> Sequence[int]:
            for size, bits in draws:
                while getrandbits(bits) >= size:
                    pass
            return everyone

        return select_everyone

    def describe(self) -> str:
        children = ", ".join(child.describe() for child in self.children)
        return f"{self.n}-of:[{children}]"


# --------------------------------------------------------------------------- factories
def _signed_by_all(orgs: Sequence[int]) -> Tuple[SignedBy, ...]:
    return tuple(SignedBy(org) for org in orgs)


def policy_p0(num_orgs: int) -> PolicyNode:
    """P0: every organization must endorse ("N-of" all, Table 5)."""
    _require_orgs(num_orgs, minimum=1)
    return NOutOf(n=num_orgs, children=_signed_by_all(range(num_orgs)))


def policy_p1(num_orgs: int) -> PolicyNode:
    """P1: Org0 plus any one of the remaining organizations (one sub-policy)."""
    _require_orgs(num_orgs, minimum=2)
    others = NOutOf(n=1, children=_signed_by_all(range(1, num_orgs)))
    return NOutOf(n=2, children=(SignedBy(0), others))


def policy_p2(num_orgs: int) -> PolicyNode:
    """P2: one org from the first half and one from the second half (two sub-policies)."""
    _require_orgs(num_orgs, minimum=2)
    split = max(1, num_orgs // 2 + 1) if num_orgs > 2 else 1
    first = NOutOf(n=1, children=_signed_by_all(range(0, split)))
    second = NOutOf(n=1, children=_signed_by_all(range(split, num_orgs)))
    return NOutOf(n=2, children=(first, second))


def policy_p3(num_orgs: int) -> PolicyNode:
    """P3: a quorum of ``N/2 + 1`` organizations."""
    _require_orgs(num_orgs, minimum=1)
    quorum = num_orgs // 2 + 1
    return NOutOf(n=min(quorum, num_orgs), children=_signed_by_all(range(num_orgs)))


def _require_orgs(num_orgs: int, minimum: int) -> None:
    if num_orgs < minimum:
        raise EndorsementPolicyError(
            f"this policy needs at least {minimum} organizations, got {num_orgs}"
        )


#: Factories of the four standard policies, keyed as in Table 5.
POLICY_FACTORIES = {
    "P0": policy_p0,
    "P1": policy_p1,
    "P2": policy_p2,
    "P3": policy_p3,
}


def standard_policies(num_orgs: int) -> Dict[str, PolicyNode]:
    """All four Table 5 policies instantiated for ``num_orgs`` organizations."""
    policies: Dict[str, PolicyNode] = {}
    for name, factory in POLICY_FACTORIES.items():
        try:
            policies[name] = factory(num_orgs)
        except EndorsementPolicyError:
            continue
    return policies


def build_policy(spec: "PolicyNode | str", num_orgs: int) -> PolicyNode:
    """Resolve a policy: either an explicit tree or one of the P0-P3 names."""
    if isinstance(spec, PolicyNode):
        orgs = spec.organizations()
        if orgs and max(orgs) >= num_orgs:
            raise EndorsementPolicyError(
                f"the policy references organization {max(orgs)} but only "
                f"{num_orgs} organizations exist"
            )
        return spec
    name = str(spec).upper()
    if name not in POLICY_FACTORIES:
        known = ", ".join(sorted(POLICY_FACTORIES))
        raise EndorsementPolicyError(f"unknown endorsement policy {spec!r}; known: {known}")
    return POLICY_FACTORIES[name](num_orgs)


def vscc_validation_cost(
    policy: PolicyNode, signature_count: int, timing: TimingProfile
) -> float:
    """Time the VSCC check takes for one transaction.

    The endorsement policy is parsed during VSCC validation and compared with
    the collected signatures; each sub-policy is a separate search space, so
    the cost grows with both the number of signatures and the number of
    sub-policies (paper Section 5.1.4).
    """
    return (
        timing.vscc_per_signature * max(1, signature_count)
        + timing.vscc_per_subpolicy * policy.subpolicy_count()
    )
