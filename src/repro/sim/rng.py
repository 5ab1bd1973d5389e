"""Seeded random-number streams.

Every stochastic component of the simulation (arrival processes, network
jitter, key selection, endorser selection, ...) draws from its own named
stream, derived deterministically from a single experiment seed.  This keeps
experiments reproducible and lets two configurations differ only in the
parameter under study, not in unrelated random draws.

Hot-path contract: :meth:`RandomStreams.stream` performs a dict lookup (and a
SHA-256 derivation on first use), so components must resolve their streams
*once at build time* and keep the returned ``random.Random`` handle — never
call ``stream()`` inside a per-event method (``scripts/check_hot_path.py``
enforces this).  For bulk draws with a known count, the batched fast paths
(:func:`exponential_draws`, :meth:`RandomStreams.exponential_batch`, and the
``sampler`` / ``sample_batch`` methods of the key distributions) hoist the
per-draw method dispatch while replaying the *exact same* underlying
``random.Random`` sequence as the equivalent per-call draws — both the values
and the generator state after the batch are bit-identical.
"""

from __future__ import annotations

import hashlib
import random
from math import log as _log
from typing import Dict, List


def exponential_draws(rng: random.Random, rate: float, count: int) -> List[float]:
    """``count`` draws byte-identical to ``count`` ``rng.expovariate(rate)`` calls.

    CPython's ``expovariate(lambd)`` is ``-log(1.0 - random()) / lambd``; this
    replays that arithmetic with the uniform source and ``log`` hoisted out of
    the loop, consuming exactly one underlying uniform per draw.
    """
    random_ = rng.random
    return [-_log(1.0 - random_()) / rate for _ in range(count)]


def derive_seed(*parts: object) -> int:
    """Derive a 64-bit seed by hashing the given components.

    The components are joined with an unambiguous separator and hashed with
    SHA-256, so seeds derived from different component tuples never collide by
    arithmetic accident (unlike ``base_seed + offset`` schemes, where adjacent
    base seeds share repetition seeds).  Used by the experiment harness to give
    every repetition of every configuration its own independent stream family.
    """
    text = "\x1f".join(str(part) for part in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStreams:
    """A factory of named, independently seeded ``random.Random`` streams."""

    __slots__ = ("seed", "_streams")

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it deterministically."""
        if name not in self._streams:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode("utf-8")).digest()
            self._streams[name] = random.Random(int.from_bytes(digest[:8], "big"))
        return self._streams[name]

    def exponential_batch(self, name: str, rate: float, count: int) -> List[float]:
        """``count`` exponential draws from stream ``name`` (batched fast path).

        Byte-identical to ``count`` ``stream(name).expovariate(rate)`` calls —
        same values, same stream state afterwards — with the per-draw method
        dispatch hoisted.  Only for callers that know the draw count up front;
        data-dependent consumers must replay per-call loops instead.
        """
        return exponential_draws(self.stream(name), rate, count)

    def spawn(self, name: str) -> "RandomStreams":
        """Derive a child factory, e.g. one per repetition of an experiment."""
        digest = hashlib.sha256(f"{self.seed}:spawn:{name}".encode("utf-8")).digest()
        return RandomStreams(int.from_bytes(digest[:8], "big"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStreams(seed={self.seed}, streams={sorted(self._streams)})"
