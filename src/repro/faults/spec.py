"""Fault-injection configuration and the ``--fault-spec`` parsers.

A :class:`FaultConfig` declares *what kind of chaos* a deployment is exposed
to — random peer crashes, endorser slowdown episodes, orderer outage windows,
channel network partitions, a dropped-endorsement loss rate — without naming
concrete injection times.  The concrete, per-run timeline is materialized by
:class:`~repro.faults.schedule.FaultSchedule` from the deployment's seeded RNG
streams, so two runs of the same configuration inject exactly the same faults
at exactly the same virtual times.

The default configuration is *disabled*: no controller is built, no RNG stream
is created, no simulator event is scheduled, and the experiment harness omits
the field from the configuration content hash — a no-fault run is bit-identical
to a build without the fault subsystem.

The module also owns the two textual forms of the CLI's ``--fault-spec``
option: a JSON object (``{"peer_crash": {"rate": 0.05}}``) and a compact
inline DSL (``peer-crash:rate=0.05,downtime=2;orderer-outage:start=5,duration=3``).
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class FaultConfig:
    """Chaos profile of one deployment (disabled by default).

    Rates are per simulated second; windows are absolute simulated times.
    All the timing knobs of the fault subsystem live here — deliberately not
    in :class:`~repro.network.config.TimingProfile` — so that a disabled
    config can be omitted from experiment cell hashes without perturbing the
    hashes of fault-free configurations.
    """

    #: Expected crashes per peer per simulated second (a Poisson process per
    #: peer; ``0`` disables crashes).
    peer_crash_rate: float = 0.0
    #: Mean downtime in seconds of one crash (exponentially distributed).
    peer_downtime: float = 2.0
    #: Expected slowdown episodes per endorsing peer per simulated second.
    endorser_slowdown_rate: float = 0.0
    #: Multiplier applied to endorsement service times during an episode.
    endorser_slowdown_factor: float = 5.0
    #: Mean length in seconds of one slowdown episode (exponential).
    endorser_slowdown_duration: float = 1.0
    #: Orderer outage windows as ``(start, duration)`` pairs in simulated
    #: seconds.  During a window the ordering service refuses submissions
    #: (``ORDERER_UNAVAILABLE``) and defers block cuts to the window's end.
    orderer_outages: Tuple[Tuple[float, float], ...] = ()
    #: Channel network partitions as ``(channel, start, duration)`` triples.
    #: A partitioned channel is unreachable from its clients: proposals fail
    #: fast (``PEER_UNAVAILABLE``) and submissions are refused.  On the
    #: classic single-channel path the channel index is ``0``.
    partitions: Tuple[Tuple[int, float, float], ...] = ()
    #: Probability that any single endorsement proposal (or its response) is
    #: silently lost in transit; the client's watchdog then times the
    #: transaction out (``ENDORSEMENT_TIMEOUT``).
    endorsement_loss_rate: float = 0.0
    #: Client-side endorsement collection timeout in seconds.  The watchdog
    #: is armed per transaction only when a configured fault can lose or
    #: stall an endorsement (see :attr:`arms_endorsement_watchdog`); no other
    #: profile ever schedules it.
    endorsement_timeout: float = 1.5

    @property
    def enabled(self) -> bool:
        """True when any fault can actually fire."""
        return bool(
            self.peer_crash_rate > 0
            or self.endorser_slowdown_rate > 0
            or self.orderer_outages
            or self.partitions
            or self.endorsement_loss_rate > 0
        )

    def identity(self) -> Optional[dict]:
        """What this config adds to an experiment cell's identity.

        ``None`` while disabled: no controller, stream or event is ever
        created, so a fault-free configuration keeps the cell hash it had
        before the fault subsystem existed.
        """
        return dataclasses.asdict(self) if self.enabled else None

    @property
    def arms_endorsement_watchdog(self) -> bool:
        """True when the client must arm its endorsement-collection watchdog.

        Only faults that can *lose* an endorsement (the loss rate) or *delay*
        one past the deadline (slowdown episodes) need the watchdog; crashes
        and partitions fail proposals fast instead.  Keeping the watchdog off
        otherwise ensures an outage-only profile never reclassifies a merely
        congested endorsement queue as an infrastructure timeout.
        """
        return self.endorsement_loss_rate > 0 or self.endorser_slowdown_rate > 0

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` for inconsistent settings.

        Every bound is written so that NaN and infinity fail it too.
        """
        if not 0 <= self.peer_crash_rate < math.inf:
            raise ConfigurationError(
                f"the peer crash rate must be >= 0 and finite, got {self.peer_crash_rate}"
            )
        if not 0 < self.peer_downtime < math.inf:
            raise ConfigurationError(
                f"the mean peer downtime must be positive and finite, got {self.peer_downtime}"
            )
        if not 0 <= self.endorser_slowdown_rate < math.inf:
            raise ConfigurationError(
                "the endorser slowdown rate must be >= 0 and finite, got "
                f"{self.endorser_slowdown_rate}"
            )
        if not 1 <= self.endorser_slowdown_factor < math.inf:
            raise ConfigurationError(
                "the endorser slowdown factor must be >= 1 and finite, got "
                f"{self.endorser_slowdown_factor}"
            )
        if not 0 < self.endorser_slowdown_duration < math.inf:
            raise ConfigurationError(
                "the mean endorser slowdown duration must be positive and finite, got "
                f"{self.endorser_slowdown_duration}"
            )
        if not 0.0 <= self.endorsement_loss_rate <= 1.0:
            raise ConfigurationError(
                f"the endorsement loss rate must be in [0, 1], got {self.endorsement_loss_rate}"
            )
        if not 0 < self.endorsement_timeout < math.inf:
            raise ConfigurationError(
                "the endorsement timeout must be positive and finite, got "
                f"{self.endorsement_timeout}"
            )
        # Both non-negative, a finite ``start + duration`` makes both finite: a window must end.
        for start, duration in self.orderer_outages:
            if not (0 <= start and 0 < duration and start + duration < math.inf):
                raise ConfigurationError(
                    "orderer outage windows need a finite start >= 0 and a finite "
                    f"duration > 0 with a finite end, got ({start}, {duration})"
                )
        for channel, start, duration in self.partitions:
            if channel < 0:
                raise ConfigurationError(f"partition channel index must be >= 0, got {channel}")
            if not (0 <= start and 0 < duration and start + duration < math.inf):
                raise ConfigurationError(
                    "partition windows need a finite start >= 0 and a finite duration > 0 "
                    f"with a finite end, got ({start}, {duration}) on channel {channel}"
                )

    def describe(self) -> str:
        """Compact human-readable summary used in reports and ``describe()``."""
        parts: List[str] = []
        if self.peer_crash_rate > 0:
            parts.append(f"crash={self.peer_crash_rate:g}/s~{self.peer_downtime:g}s")
        if self.endorser_slowdown_rate > 0:
            parts.append(
                f"slow={self.endorser_slowdown_rate:g}/s x{self.endorser_slowdown_factor:g}"
            )
        if self.orderer_outages:
            parts.append(f"outages={len(self.orderer_outages)}")
        if self.partitions:
            parts.append(f"partitions={len(self.partitions)}")
        if self.endorsement_loss_rate > 0:
            parts.append(f"loss={self.endorsement_loss_rate:.0%}")
        return ",".join(parts) if parts else "none"


# --------------------------------------------------------------------- parsing
#: The fault kinds understood by the inline DSL, with their parameter names.
FAULT_KINDS: Dict[str, Tuple[str, ...]] = {
    "peer-crash": ("rate", "downtime"),
    "endorser-slowdown": ("rate", "factor", "duration"),
    "orderer-outage": ("start", "duration"),
    "partition": ("channel", "start", "duration"),
    "endorsement-loss": ("rate",),
    "endorsement-timeout": ("seconds",),
}

#: The top-level JSON keys accepted by :func:`fault_config_from_json`.
_JSON_KEYS = (
    "peer_crash",
    "endorser_slowdown",
    "orderer_outages",
    "partitions",
    "endorsement_loss_rate",
    "endorsement_timeout",
)


def available_fault_kinds() -> List[str]:
    """Canonical names of all fault kinds of the inline DSL."""
    return sorted(FAULT_KINDS)


def _number(kind: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigurationError(
            f"fault spec {kind!r}: parameter {key}={raw!r} is not a number"
        ) from exc


def _channel_index(label: str, value: float) -> int:
    """A partition's channel index: finite (``int()`` of NaN or infinity raises)
    and whole (``int()`` truncates 1.9 to 1, and -0.5 past the ``>= 0`` check)."""
    if not -math.inf < value < math.inf:
        raise ConfigurationError(f"fault spec parameter {label} must be finite, got {value}")
    if value != int(value):
        raise ConfigurationError(
            f"fault spec parameter {label} must be a whole channel index, got {value}"
        )
    return int(value)


def _clause_params(kind: str, parts: List[str]) -> Dict[str, float]:
    """Parse the ``key=value`` parameters of one DSL clause."""
    allowed = FAULT_KINDS[kind]
    params: Dict[str, float] = {}
    for part in parts:
        if "=" not in part:
            raise ConfigurationError(
                f"fault spec {kind!r}: expected key=value, got {part!r}"
            )
        key, _, raw = part.partition("=")
        key = key.strip()
        if key not in allowed:
            raise ConfigurationError(
                f"fault spec {kind!r}: unknown parameter {key!r}; "
                f"valid parameters: {', '.join(allowed)}"
            )
        params[key] = _number(kind, key, raw.strip())
    return params


def fault_config_from_dsl(text: str) -> FaultConfig:
    """Parse the inline fault DSL into a :class:`FaultConfig`.

    Grammar: semicolon-separated clauses, each ``kind:key=value,key=value``
    (see :data:`FAULT_KINDS`).  ``orderer-outage`` and ``partition`` clauses
    may repeat, appending one window each.
    """
    config = FaultConfig()
    outages: List[Tuple[float, float]] = []
    partitions: List[Tuple[int, float, float]] = []
    #: Window clauses may repeat (each appends one window); every other kind
    #: configures a scalar, so a repeat would silently drop the earlier value.
    repeatable = {"orderer-outage", "partition"}
    seen: set[str] = set()
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        kind, _, rest = clause.partition(":")
        kind = kind.strip()
        if kind not in FAULT_KINDS:
            known = ", ".join(available_fault_kinds())
            raise ConfigurationError(
                f"unknown fault type {kind!r}; valid fault types: {known}"
            )
        if kind in seen and kind not in repeatable:
            raise ConfigurationError(
                f"fault type {kind!r} appears more than once; only orderer-outage "
                "and partition clauses may repeat"
            )
        seen.add(kind)
        params = _clause_params(kind, [p for p in rest.split(",") if p.strip()])
        if kind == "peer-crash":
            config = replace(
                config,
                peer_crash_rate=params.get("rate", 0.05),
                peer_downtime=params.get("downtime", config.peer_downtime),
            )
        elif kind == "endorser-slowdown":
            config = replace(
                config,
                endorser_slowdown_rate=params.get("rate", 0.05),
                endorser_slowdown_factor=params.get("factor", config.endorser_slowdown_factor),
                endorser_slowdown_duration=params.get(
                    "duration", config.endorser_slowdown_duration
                ),
            )
        elif kind == "orderer-outage":
            outages.append((params.get("start", 0.0), params.get("duration", 1.0)))
        elif kind == "partition":
            partitions.append(
                (
                    _channel_index("partition.channel", params.get("channel", 0.0)),
                    params.get("start", 0.0),
                    params.get("duration", 1.0),
                )
            )
        elif kind == "endorsement-loss":
            config = replace(config, endorsement_loss_rate=params.get("rate", 0.01))
        elif kind == "endorsement-timeout":
            config = replace(
                config, endorsement_timeout=params.get("seconds", config.endorsement_timeout)
            )
    if outages:
        config = replace(config, orderer_outages=tuple(outages))
    if partitions:
        config = replace(config, partitions=tuple(partitions))
    config.validate()
    _reject_disabled_spec(config, bool(text.strip()))
    return config


def fault_config_from_json(text: str) -> FaultConfig:
    """Parse a JSON fault spec document into a :class:`FaultConfig`."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"malformed fault spec JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ConfigurationError(
            f"the fault spec JSON must be an object, got {type(document).__name__}"
        )
    unknown = sorted(set(document) - set(_JSON_KEYS))
    if unknown:
        known = ", ".join(_JSON_KEYS)
        raise ConfigurationError(
            f"unknown fault spec keys {unknown}; valid keys: {known}"
        )
    kwargs: Dict[str, object] = {}
    if "peer_crash" in document:
        # An empty object enables the fault at its default rate, exactly like
        # the parameterless DSL clause.
        crash = _json_params(document, "peer_crash", ("rate", "downtime"))
        kwargs["peer_crash_rate"] = _json_number("peer_crash.rate", crash.get("rate", 0.05))
        if "downtime" in crash:
            kwargs["peer_downtime"] = _json_number("peer_crash.downtime", crash["downtime"])
    if "endorser_slowdown" in document:
        slowdown = _json_params(document, "endorser_slowdown", ("rate", "factor", "duration"))
        kwargs["endorser_slowdown_rate"] = _json_number(
            "endorser_slowdown.rate", slowdown.get("rate", 0.05)
        )
        if "factor" in slowdown:
            kwargs["endorser_slowdown_factor"] = _json_number(
                "endorser_slowdown.factor", slowdown["factor"]
            )
        if "duration" in slowdown:
            kwargs["endorser_slowdown_duration"] = _json_number(
                "endorser_slowdown.duration", slowdown["duration"]
            )
    if "orderer_outages" in document:
        kwargs["orderer_outages"] = tuple(
            (
                _json_number("orderer_outages.start", start),
                _json_number("orderer_outages.duration", duration),
            )
            for start, duration in _json_windows(document, "orderer_outages", width=2)
        )
    if "partitions" in document:
        kwargs["partitions"] = tuple(
            (
                _channel_index("partitions.channel", _json_number("partitions.channel", channel)),
                _json_number("partitions.start", start),
                _json_number("partitions.duration", duration),
            )
            for channel, start, duration in _json_windows(document, "partitions", width=3)
        )
    if "endorsement_loss_rate" in document:
        kwargs["endorsement_loss_rate"] = _json_number(
            "endorsement_loss_rate", document["endorsement_loss_rate"]
        )
    if "endorsement_timeout" in document:
        kwargs["endorsement_timeout"] = _json_number(
            "endorsement_timeout", document["endorsement_timeout"]
        )
    config = FaultConfig(**kwargs)
    # An explicit JSON document — even '{}' — is a stated intent to inject
    # faults, so a disabled result always fails loudly.
    config.validate()
    _reject_disabled_spec(config, True)
    return config


def _json_params(document: Dict, key: str, allowed: Tuple[str, ...]) -> Dict:
    """One nested fault object, with its type and parameter names validated."""
    params = document.get(key, {})
    if not isinstance(params, dict):
        raise ConfigurationError(
            f"fault spec key {key!r} must be an object with parameters "
            f"{', '.join(allowed)}; got {params!r}"
        )
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise ConfigurationError(
            f"fault spec key {key!r}: unknown parameters {unknown}; "
            f"valid parameters: {', '.join(allowed)}"
        )
    return params


def _json_number(label: str, value: object) -> float:
    """One numeric fault parameter, rejecting non-numbers with a clean error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"fault spec parameter {label} must be a number, got {value!r}")
    return float(value)


def _json_windows(document: Dict, key: str, width: int) -> List:
    """A list of fixed-width windows, with its shape validated."""
    windows = document[key]
    if not isinstance(windows, list) or not all(
        isinstance(window, (list, tuple)) and len(window) == width for window in windows
    ):
        raise ConfigurationError(
            f"fault spec key {key!r} must be a list of {width}-element lists, got {windows!r}"
        )
    return windows


def _reject_disabled_spec(config: FaultConfig, any_clause: bool) -> None:
    """Reject non-empty specs that parse into a disabled (no-op) config.

    A spec whose every rate is zero and which names no windows — including
    ``endorsement-timeout`` on its own, which only tunes the watchdog — would
    silently run a healthy baseline while the user believes they enabled
    chaos; fail loudly instead.
    """
    if any_clause and not config.enabled:
        raise ConfigurationError(
            "the fault spec injects nothing by itself: every configured rate "
            "is zero and no outage/partition window is given (note that "
            "endorsement-timeout only tunes the watchdog); enable at least "
            "one fault kind, e.g. peer-crash:rate=0.1 or endorsement-loss:rate=0.02"
        )


def parse_fault_spec(text: str) -> FaultConfig:
    """Parse ``--fault-spec`` input: a JSON object or the inline DSL."""
    stripped = text.strip()
    if not stripped:
        return FaultConfig()
    if stripped.startswith("{"):
        return fault_config_from_json(stripped)
    return fault_config_from_dsl(stripped)


def fault_config_summary(config: FaultConfig) -> Dict[str, object]:
    """The configuration as JSON-serializable data (CLI ``--json`` output)."""
    return {
        spec_field.name: list(map(list, value)) if isinstance(value, tuple) else value
        for spec_field in fields(config)
        for value in (getattr(config, spec_field.name),)
    }
