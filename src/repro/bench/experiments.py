"""Experiment definitions: one spec row per table and figure of the paper.

Every artefact of the evaluation (Section 5) has one shape — the Table 3
defaults, one or two varied parameters, named failure/latency columns — so each
is one :class:`ExperimentSpec` entry of :data:`EXPERIMENTS`, the single
description the CLI's ``figure`` command, the generated ``docs/EXPERIMENTS.md``
and the ``slow`` benchmarks all read.  One executor, :func:`regenerate`, runs
any of them and returns an :class:`ExperimentReport` — a titled table whose
rows mirror the series the paper plots.  It takes a :class:`Scale` that
controls the simulated duration, repetitions and population sizes, so the same
spec can run as a quick laptop benchmark (:data:`QUICK_SCALE`), a more
faithful sweep (:data:`STANDARD_SCALE`) or the full paper setup
(:data:`PAPER_SCALE`, 180 simulated seconds and three repetitions).

It also takes an optional :class:`~repro.bench.runner.ExperimentRunner`; the
grid behind the artefact is submitted to it as one batch, so a parallel runner
spreads the cells across worker processes and a caching runner skips cells
that already ran — without changing a single reported value (results are
deterministic per configuration/repetition).  When no runner is passed, the
shared default runner (serial, in-memory cache) is used.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.bench.harness import RESULT_COLUMNS, ExperimentConfig, ExperimentResult
from repro.bench.runner import ExperimentRunner, get_default_runner
from repro.chaincode import create_chaincode
from repro.chaincode.api import ChaincodeStub
from repro.core.adaptive import AdaptiveBlockSizeController, SweepResult
from repro.errors import ConfigurationError
from repro.faults.spec import FaultConfig
from repro.ledger.factory import make_state_store
from repro.lifecycle.retry import RetryConfig
from repro.network.config import NetworkConfig
from repro.workload.spec import WorkloadSpec
from repro.workload.workloads import read_update_uniform, synthetic_workload, uniform_workload


# --------------------------------------------------------------------------- scales
@dataclass(frozen=True)
class Scale:
    """How big an experiment run should be."""

    name: str
    duration: float
    repetitions: int
    rates: Tuple[int, ...]
    block_sizes: Tuple[int, ...]
    genchain_keys: int
    dv_voters: int
    scm_units: Tuple[int, ...]
    ehr_patients: int
    drm_artworks: int


#: Small populations and short runs: the whole benchmark suite finishes on a laptop.
QUICK_SCALE = Scale(
    name="quick",
    duration=8.0,
    repetitions=1,
    rates=(25, 100, 200),
    block_sizes=(10, 50, 150),
    genchain_keys=20_000,
    dv_voters=120,
    scm_units=(120, 120, 120, 120, 240),
    ehr_patients=100,
    drm_artworks=200,
)

#: Longer runs and the full rate/block-size grids of the paper.
STANDARD_SCALE = Scale(
    name="standard",
    duration=20.0,
    repetitions=2,
    rates=(10, 50, 100, 150, 200),
    block_sizes=(10, 50, 100, 150, 200),
    genchain_keys=50_000,
    dv_voters=300,
    scm_units=(200, 200, 200, 200, 400),
    ehr_patients=100,
    drm_artworks=200,
)

#: The paper's setup: 3-minute runs, three repetitions, full populations.
PAPER_SCALE = Scale(
    name="paper",
    duration=180.0,
    repetitions=3,
    rates=(10, 50, 100, 150, 200),
    block_sizes=(10, 50, 100, 150, 200),
    genchain_keys=100_000,
    dv_voters=1000,
    scm_units=(400, 400, 400, 400, 800),
    ehr_patients=100,
    drm_artworks=200,
)


@dataclass
class ExperimentReport:
    """Rows/series regenerating one table or figure of the paper."""

    experiment_id: str
    title: str
    headers: Tuple[str, ...]
    rows: List[Tuple] = field(default_factory=list)

    def column(self, name: str) -> List:
        """All values of one column, in row order."""
        index = self.headers.index(name)
        return [row[index] for row in self.rows]

    def rows_where(self, **constraints) -> List[Tuple]:
        """Rows whose named columns equal the given values."""
        indexes = {self.headers.index(name): value for name, value in constraints.items()}
        return [
            row
            for row in self.rows
            if all(row[index] == value for index, value in indexes.items())
        ]

    def value(self, column: str, **constraints) -> float:
        """The single value of ``column`` in the row matching ``constraints``."""
        matches = self.rows_where(**constraints)
        if len(matches) != 1:
            raise ValueError(
                f"expected exactly one row matching {constraints}, found {len(matches)}"
            )
        return matches[0][self.headers.index(column)]


# --------------------------------------------------------------------------- helpers
def scaled_workload(chaincode: str, scale: Scale) -> WorkloadSpec:
    """The default uniform workload of a chaincode, scaled for quick runs."""
    if chaincode == "EHR":
        return uniform_workload("EHR", patients=scale.ehr_patients)
    if chaincode == "DV":
        return uniform_workload("DV", voters=scale.dv_voters)
    if chaincode == "SCM":
        return uniform_workload("SCM", units_per_lsp=list(scale.scm_units))
    if chaincode == "DRM":
        return uniform_workload("DRM", artworks=scale.drm_artworks)
    return uniform_workload("genChain", num_keys=scale.genchain_keys)


def scaled_synthetic(abbreviation: str, scale: Scale, include_range: bool = True) -> WorkloadSpec:
    """A genChain x-heavy workload with the scale's key population."""
    return synthetic_workload(
        abbreviation, include_range=include_range, num_keys=scale.genchain_keys
    )


def base_config(
    scale: Scale,
    cluster: str = "C2",
    variant: str = "fabric-1.4",
    workload: Optional[WorkloadSpec] = None,
    arrival_rate: float = 100.0,
    zipf_skew: float = 1.0,
    seed: int = 7,
    **network_overrides,
) -> ExperimentConfig:
    """An :class:`ExperimentConfig` with the paper's Table 3 defaults."""
    return ExperimentConfig(
        variant=variant,
        workload=workload or scaled_workload("EHR", scale),
        network=NetworkConfig(cluster=cluster, **network_overrides),
        arrival_rate=arrival_rate,
        duration=scale.duration,
        zipf_skew=zipf_skew,
        repetitions=scale.repetitions,
        seed=seed,
    )


def read_update(scale: Scale) -> WorkloadSpec:
    """The genChain read/update workload of the Zipfian-skew experiments."""
    return read_update_uniform(num_keys=scale.genchain_keys)


def mid_run_outage(scale: Scale) -> Tuple[Tuple[float, float], ...]:
    """One orderer outage window: a tenth of the run, starting at 30 %."""
    return ((0.3 * scale.duration, 0.1 * scale.duration),)


def cell_config(scale: Scale, params: Mapping[str, object]) -> ExperimentConfig:
    """The Table 3 configuration with one grid cell's parameters applied.

    Parameters are :func:`base_config` keywords, except that a callable value
    is first called with the scale, ``chaincode`` and ``workload_mix`` select
    the scaled workload of a use-case chaincode or a genChain x-heavy mix, and
    ``retry.<field>`` / ``faults.<field>`` assemble the retry and fault
    configurations.
    """
    settings = {name: value(scale) if callable(value) else value for name, value in params.items()}
    if "chaincode" in settings:
        settings["workload"] = scaled_workload(settings.pop("chaincode"), scale)
    if "workload_mix" in settings:
        # FabricSharp does not support range queries, so the minority share of
        # range reads is removed from the synthetic mixes it runs (Section 5.4.3).
        settings["workload"] = scaled_synthetic(
            settings.pop("workload_mix"),
            scale,
            include_range=settings.get("variant") != "fabricsharp",
        )
    for prefix, factory in (("retry.", RetryConfig), ("faults.", FaultConfig)):
        names = [name for name in settings if name.startswith(prefix)]
        fields = {name[len(prefix):]: settings.pop(name) for name in names}
        if fields:
            settings[prefix[:-1]] = factory(**fields)
    return base_config(scale, **settings)


# --------------------------------------------------------------------------- specs
#: ``(row labels, cell parameters)`` of one grid point.
Point = Tuple[Tuple, Dict[str, object]]


@dataclass(frozen=True)
class Axis:
    """One sweep dimension of an experiment grid.

    ``values`` is a literal tuple or the name of a :class:`Scale` field: each
    value is its own row label under ``header`` and binds the cell parameter
    ``param`` (default: the header).  A tuple ``header`` unpacks tuple values
    into one column and parameter each.  Points that set several parameters at
    once are a mapping from the row label to the parameters it binds — or,
    where the points depend on the scale, a function of it returning one.
    """

    header: Union[str, Tuple[str, ...]]
    values: Union[str, Tuple, Mapping, Callable[[Scale], Mapping]]
    param: str = ""

    @property
    def headers(self) -> Tuple[str, ...]:
        """The row-label columns this axis contributes."""
        return (self.header,) if isinstance(self.header, str) else self.header

    @property
    def name(self) -> str:
        """The keyword that overrides this axis in :func:`regenerate`."""
        return "_".join(self.headers)

    def points(self, scale: Scale, override: Optional[Tuple] = None) -> List[Point]:
        """The axis expanded at ``scale``, ``override`` replacing its values."""
        values = self.values
        if callable(values):
            values = values(scale)
        elif isinstance(values, str):
            values = getattr(scale, values)
        if override is not None and isinstance(values, Mapping):
            unknown = [label for label in override if label not in values]
            if unknown:
                raise ConfigurationError(f"axis {self.name!r} has no value {unknown[0]!r}")
            values = {label: values[label] for label in override}
        elif override is not None:
            values = tuple(override)
        if not values:
            raise ConfigurationError(f"axis {self.name!r} is empty — the grid has no cells")
        single = isinstance(self.header, str)
        names = (self.param or self.header,) if single else self.header
        points: List[Point] = []
        for value in values:
            labels = (value,) if single else tuple(value)
            bound = values[value] if isinstance(values, Mapping) else zip(names, labels)
            points.append((labels, dict(bound)))
        return points


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything there is to know about one experiment.

    ``artefact`` names the paper table/figure the experiment reproduces (or
    ``extension`` for the scenarios beyond the paper) and ``section`` where the
    paper discusses it; ``sweep_axes`` are the control variables the study is
    about, ``variants`` the Fabric variant family involved, and
    ``expected_trend`` the qualitative result the reproduction must show.

    The grid is ``base`` (overrides on the Table 3 configuration, see
    :func:`cell_config`) crossed with ``axes``.  Each cell becomes one row: its
    axis labels, then ``columns`` read off the result through
    :data:`~repro.bench.harness.RESULT_COLUMNS`.  Two features cover the
    irregular figures: ``reduce`` is an innermost axis collapsed into one row
    per outer cell (columns from :data:`SWEEP_COLUMNS`), and ``baseline`` names
    the first-axis label whose cell the :data:`BASELINE_COLUMNS` compare to.
    Experiments that run no grid of network cells supply ``body`` instead, a
    function of the scale returning the rows.
    """

    title: str
    summary: str
    sweep_axes: Tuple[str, ...]
    expected_trend: str
    artefact: str = "extension"
    section: str = "extension"
    variants: str = "fabric-1.4"
    base: Mapping[str, object] = field(default_factory=dict)
    axes: Tuple[Axis, ...] = ()
    columns: Tuple[str, ...] = ()
    reduce: Optional[Axis] = None
    baseline: Optional[object] = None
    body: Optional[Callable[[Scale], List[Tuple]]] = None

    @property
    def grid(self) -> Tuple[Axis, ...]:
        """Every grid dimension, outermost first."""
        return self.axes + ((self.reduce,) if self.reduce else ())

    @property
    def headers(self) -> Tuple[str, ...]:
        """The report's column headers: axis labels, then the value columns."""
        return tuple(header for axis in self.axes for header in axis.headers) + self.columns

    def cells(self, scale: Scale, overrides: Mapping[str, Tuple]) -> List[Point]:
        """The grid in row order: later axes vary fastest and bind last."""
        cells: List[Point] = [((), dict(self.base))]
        for axis in self.grid:
            points = axis.points(scale, overrides.get(axis.name))
            cells = [
                (labels + more, {**params, **bound})
                for labels, params in cells
                for more, bound in points
            ]
        return cells

    def rows(self, cells: List[Point], results: List[ExperimentResult]) -> List[Tuple]:
        """Tabulate the results of ``cells`` (same order) into report rows."""
        labelled = [(labels, result) for (labels, _), result in zip(cells, results)]
        if self.reduce is not None:
            rows = []
            for outer, group in itertools.groupby(labelled, key=lambda pair: pair[0][:-1]):
                sweep = SweepResult({labels[-1]: result.failure_pct for labels, result in group})
                rows.append(outer + tuple(SWEEP_COLUMNS[column](sweep) for column in self.columns))
            return rows
        baseline = next((result for labels, result in labelled if labels[0] == self.baseline), None)
        return [
            labels
            + tuple(
                BASELINE_COLUMNS[column](result, baseline)
                if column in BASELINE_COLUMNS
                else RESULT_COLUMNS[column](result)
                for column in self.columns
            )
            for labels, result in labelled
        ]


#: Columns of a spec with a ``reduce`` axis, read off the collapsed block-size sweep.
SWEEP_COLUMNS: Dict[str, Callable[[SweepResult], object]] = {
    "best_block_size": attrgetter("best_block_size"),
    "worst_block_size": attrgetter("worst_block_size"),
    "least_failures_pct": attrgetter("min_failures"),
    "most_failures_pct": attrgetter("max_failures"),
    "reduction_pct": attrgetter("improvement_pct"),
}


def recovered_request_pct(result: ExperimentResult, baseline: Optional[ExperimentResult]) -> float:
    """Share of the requests the baseline cell lost that ``result`` committed."""
    if baseline is None:
        return 0.0
    lost = max(baseline.logical_requests - baseline.committed_requests, 0.0)
    if lost <= 0:
        return 0.0
    return 100.0 * (result.committed_requests - baseline.committed_requests) / lost


#: Columns of a spec with a ``baseline``, computed against the baseline cell.
BASELINE_COLUMNS: Dict[str, Callable[[ExperimentResult, Optional[ExperimentResult]], object]] = {
    "recovered_request_pct": recovered_request_pct,
}


def regenerate(
    experiment_id: str,
    scale: Scale = QUICK_SCALE,
    runner: Optional[ExperimentRunner] = None,
    **axis_values: Tuple,
) -> ExperimentReport:
    """Run the experiment ``experiment_id`` of :data:`EXPERIMENTS` at ``scale``.

    The whole grid is submitted to ``runner`` (default: the shared default
    runner) as one batch.  A keyword argument replaces the values of the axis
    of that name (:attr:`Axis.name`); naming an axis the spec does not declare
    is a :class:`~repro.errors.ConfigurationError`.
    """
    spec = EXPERIMENTS[experiment_id]
    declared = [axis.name for axis in spec.grid]
    undeclared = sorted(set(axis_values) - set(declared))
    if undeclared:
        raise ConfigurationError(
            f"experiment {experiment_id!r} has no axis {', '.join(map(repr, undeclared))}; "
            f"it declares: {', '.join(declared) or 'none'}"
        )
    if spec.body is not None:
        rows = spec.body(scale)
    else:
        cells = spec.cells(scale, axis_values)
        configs = [cell_config(scale, params) for _, params in cells]
        rows = spec.rows(cells, (runner or get_default_runner()).run_many(configs))
    return ExperimentReport(experiment_id, spec.title, spec.headers, rows)


#: The deployment of the extension scenarios: the small C1 cluster on LevelDB
#: with small blocks, whose single ordering service a few hundred tps saturate.
SATURABLE_C1 = {"cluster": "C1", "block_size": 10, "database": "leveldb"}


# --------------------------------------------------------------------------- bodies
def chaincode_profiles(scale: Scale) -> List[Tuple]:
    """Table 2 rows: the operation counts of every chaincode function.

    Every function of every chaincode is executed once against a fresh stub and
    the observed operation counts are reported next to the profile declared in
    the paper's Table 2.
    """
    chaincode_kwargs = {
        "EHR": {"patients": scale.ehr_patients},
        "DV": {"voters": scale.dv_voters},
        "SCM": {"units_per_lsp": list(scale.scm_units)},
        "DRM": {"artworks": scale.drm_artworks},
        "genChain": {"num_keys": min(scale.genchain_keys, 5000)},
    }
    rows = []
    for name, kwargs in chaincode_kwargs.items():
        chaincode = create_chaincode(name, **kwargs)
        rng = random.Random(13)
        store = make_state_store("couchdb")
        store.populate(chaincode.initial_state(rng))
        profile = chaincode.operation_profile()
        for function in chaincode.functions():
            stub = ChaincodeStub(store)
            args = chaincode.sample_args(function, rng)
            chaincode.invoke(stub, function, args)
            counts = stub.rwset.merge_counts()
            rows.append(
                (
                    name,
                    function,
                    counts["reads"],
                    counts["writes"],
                    counts["deletes"],
                    counts["range_reads"],
                    profile.get(function, ""),
                )
            )
    return rows


def adaptive_block_sizes(scale: Scale) -> Dict[Tuple[int, str], Dict[str, object]]:
    """The ``(arrival rate, policy)`` points of the adaptive block-size ablation.

    For every arrival rate, a small static block size, a large static block
    size and the block size suggested by the adaptive controller are compared.
    One controller walks the rates in order, as it would follow a rising load:
    its exponential smoothing makes each suggestion depend on the ones before.
    """
    smallest, largest = min(scale.block_sizes), max(scale.block_sizes)
    controller = AdaptiveBlockSizeController(min_block_size=smallest, max_block_size=largest)
    points = {}
    for rate in (25, 100, 200):
        block_sizes = {
            "static-small": smallest,
            "static-large": largest,
            "adaptive": controller.suggest(rate),
        }
        for policy, block_size in block_sizes.items():
            points[(rate, policy)] = {"arrival_rate": rate, "block_size": block_size}
    return points


# --------------------------------------------------------------------------- registry
MIXES = ("RH", "IH", "UH", "RaH", "DH")
MVCC_COLUMNS = ("inter_block_pct", "intra_block_pct", "total_mvcc_pct")
LOAD_COLUMNS = ("latency_s", "endorsement_pct", "mvcc_pct")

BLOCK_SIZES = Axis("block_size", "block_sizes")
RATES = Axis("arrival_rate", "rates")
LOW_RATES = Axis("arrival_rate", (10, 50, 100))
HIGH_LOADS = Axis(("cluster", "arrival_rate"), (("C1", 150), ("C1", 200), ("C2", 100)))
CHAINCODES = Axis("chaincode", ("EHR", "DV", "DRM"))
MIX_AXIS = Axis("workload", MIXES, param="workload_mix")
DATABASES = Axis("database", ("couchdb", "leveldb"))
DELAYED = Axis("delayed", {False: {"delayed_orgs": ()}, True: {"delayed_orgs": (0,)}})
FABRIC_PP = Axis("variant", ("fabric-1.4", "fabric++"))
STREAMCHAIN = Axis("variant", ("fabric-1.4", "streamchain"))
FABRICSHARP = Axis("variant", ("fabric-1.4", "fabricsharp"))
RAM_DISK_SYSTEMS = {
    "Fabric 1.4": {"variant": "fabric-1.4", "use_ram_disk": True},
    "Streamchain": {"variant": "streamchain", "use_ram_disk": True},
    "Streamchain w/o ramdisk": {"variant": "streamchain", "use_ram_disk": False},
}


def workload_series(mixes: Tuple[str, ...] = MIXES) -> Axis:
    """Two series sharing one column pair: the genChain mixes, then the key skews."""
    points = {("workload", mix): {"workload_mix": mix} for mix in mixes}
    for skew in (0.0, 1.0, 2.0):
        points[("skew", str(skew))] = {"workload": read_update, "zipf_skew": skew}
    return Axis(("series", "point"), points)


#: The resubmission rate caps of the retry-storm sweep, labelled as the table shows them.
RATE_CAPS = {
    "uncapped" if cap is None else cap: {"retry.rate_cap": cap} for cap in (None, 50.0, 25.0, 10.0)
}

#: Every experiment keyed by its artefact id, in catalog order.
EXPERIMENTS: Dict[str, ExperimentSpec] = {
    "table2": ExperimentSpec(
        artefact="Table 2",
        section="4.3",
        title="Table 2: chaincode functions and operations",
        summary="Table 2: chaincode functions and their read/write/range operation counts",
        sweep_axes=("chaincode", "function"),
        expected_trend="observed read/write/range operation counts match the declared profiles",
        columns=("chaincode", "function", "reads", "writes", "deletes", "range_reads", "paper"),
        body=chaincode_profiles,
    ),
    "table4": ExperimentSpec(
        artefact="Table 4",
        section="5.1.2",
        title="Table 4: effect of the database type (genChain workloads)",
        summary="Table 4: CouchDB vs LevelDB across the genChain workloads",
        sweep_axes=("database", "workload"),
        expected_trend="CouchDB adds ~10x per-operation latency and raises failure rates vs LevelDB",
        axes=(MIX_AXIS, DATABASES),
        columns=("latency_s", "failures_pct", "GetState_ms", "PutState_ms", "GetRange_ms", "DeleteState_ms"),
    ),
    # ------------------------------------------- Fabric 1.4 parameter study (Figures 4-16)
    "fig4": ExperimentSpec(
        artefact="Figure 4",
        section="5.1.1 (a)",
        title="Figure 4: best block size at different transaction arrival rates",
        summary="Figure 4: best block size at different transaction arrival rates",
        sweep_axes=("arrival_rate", "block_size"),
        expected_trend="the failure-minimizing block size grows with the arrival rate",
        axes=(CHAINCODES, Axis("cluster", ("C1", "C2")), RATES),
        reduce=BLOCK_SIZES,
        columns=("best_block_size", "worst_block_size"),
    ),
    "fig5": ExperimentSpec(
        artefact="Figure 5",
        section="5.1.1 (a)",
        title="Figure 5: minimum and maximum transaction failures (best vs worst block size)",
        summary="Figure 5: least and most transaction failures over the block-size sweep",
        sweep_axes=("arrival_rate", "block_size"),
        expected_trend="worst-case block sizes roughly double the failures of the best",
        axes=(CHAINCODES, RATES),
        reduce=BLOCK_SIZES,
        columns=("least_failures_pct", "most_failures_pct", "reduction_pct"),
    ),
    "fig6": ExperimentSpec(
        artefact="Figure 6",
        section="5.1.1 (a)",
        title="Figure 6: latency and committed throughput vs block size (EHR, 100 tps, C2)",
        summary="Figure 6: latency and committed throughput at different block sizes (EHR, C2)",
        sweep_axes=("block_size",),
        expected_trend="latency is minimal near the best block size; committed throughput is largely flat",
        axes=(BLOCK_SIZES,),
        columns=("latency_s", "committed_throughput_tps", "failures_pct"),
    ),
    "fig7": ExperimentSpec(
        artefact="Figure 7",
        section="5.1.1 (b)",
        title="Figure 7: effect of block size on inter-/intra-block MVCC read conflicts",
        summary="Figure 7: inter- vs intra-block MVCC read conflicts vs block size (EHR, C2)",
        sweep_axes=("block_size",),
        expected_trend="larger blocks trade inter-block MVCC conflicts for intra-block ones",
        axes=(BLOCK_SIZES,),
        columns=MVCC_COLUMNS,
    ),
    "fig8": ExperimentSpec(
        artefact="Figure 8",
        section="5.1.1 (b)",
        title="Figure 8: effect of the arrival rate on inter-/intra-block MVCC read conflicts",
        summary="Figure 8: inter- vs intra-block MVCC read conflicts vs arrival rate (EHR, C2)",
        sweep_axes=("arrival_rate",),
        expected_trend="MVCC read conflicts grow with the arrival rate",
        axes=(RATES,),
        columns=MVCC_COLUMNS,
    ),
    "fig9": ExperimentSpec(
        artefact="Figure 9",
        section="5.1.1 (c)",
        title="Figure 9: endorsement policy failures vs block size (EHR)",
        summary="Figure 9: endorsement policy failures vs block size (EHR, C2)",
        sweep_axes=("block_size",),
        expected_trend="endorsement policy failures are largely unaffected by the block size",
        axes=(BLOCK_SIZES,),
        columns=("endorsement_failures_pct",),
    ),
    "fig10": ExperimentSpec(
        artefact="Figure 10",
        section="5.1.1 (c)",
        title="Figure 10: phantom read conflicts vs block size (SCM)",
        summary="Figure 10: phantom read conflicts vs block size (SCM, C2)",
        sweep_axes=("block_size",),
        expected_trend="phantom read conflicts (SCM range queries) are largely unaffected by the block size",
        base={"chaincode": "SCM", "arrival_rate": 50.0},
        axes=(BLOCK_SIZES,),
        columns=("phantom_read_pct", "failures_pct"),
    ),
    "fig11": ExperimentSpec(
        artefact="Figure 11",
        section="5.1.2",
        title="Figure 11: effect of the database type (EHR, uniform workload)",
        summary="Figure 11: CouchDB vs LevelDB — latency, endorsement failures, MVCC conflicts (EHR)",
        sweep_axes=("database",),
        expected_trend="CouchDB raises MVCC and endorsement failures over LevelDB on the EHR workload",
        axes=(DATABASES,),
        columns=("latency_s", "endorsement_pct", "inter_block_pct", "intra_block_pct"),
    ),
    "fig12": ExperimentSpec(
        artefact="Figure 12",
        section="5.1.3",
        title="Figure 12: effect of the number of organizations",
        summary="Figure 12: effect of the number of organizations (C2, 4 peers per org)",
        sweep_axes=("orgs",),
        expected_trend="more organizations mean more endorsement policy failures and latency",
        base={"peers_per_org": 4},
        axes=(Axis("organizations", (2, 4, 6, 8, 10), param="orgs"),),
        columns=("latency_s", "endorsement_pct"),
    ),
    "fig13": ExperimentSpec(
        artefact="Figure 13",
        section="5.1.4",
        title="Figure 13: effect of the endorsement policy",
        summary="Figure 13: effect of the endorsement policies P0-P3 (Table 5)",
        sweep_axes=("endorsement_policy",),
        expected_trend="policies requiring more signatures (P0) cause the most endorsement policy failures",
        axes=(Axis("policy", ("P0", "P1", "P2", "P3"), param="endorsement_policy"),),
        columns=("latency_s", "endorsement_pct"),
    ),
    "fig14": ExperimentSpec(
        artefact="Figure 14",
        section="5.1.5",
        title="Figure 14: transaction failures per workload mix (genChain)",
        summary="Figure 14: effect of the workload mix (genChain, C2)",
        sweep_axes=("workload_mix",),
        expected_trend="update-heavy mixes fail most; insert- and delete-heavy mixes fail least",
        axes=(MIX_AXIS,),
        columns=("failures_pct",),
    ),
    "fig15": ExperimentSpec(
        artefact="Figure 15",
        section="5.1.6",
        title="Figure 15: transaction failures vs Zipfian skew",
        summary="Figure 15: effect of the Zipfian key skew (genChain read/update workload)",
        sweep_axes=("zipf_skew",),
        expected_trend="higher key skew concentrates writes and multiplies MVCC conflicts",
        base={"workload": read_update},
        axes=(Axis("zipf_skew", (0.0, 1.0, 2.0)),),
        columns=("failures_pct",),
    ),
    "fig16": ExperimentSpec(
        artefact="Figure 16",
        section="5.1.7",
        title="Figure 16: effect of an induced network delay on one organization",
        summary="Figure 16: Fabric 1.4 with and without an induced 100 ms network delay",
        sweep_axes=("delayed_orgs", "induced_delay"),
        expected_trend="a delayed organization inflates endorsement failures and latency",
        axes=(LOW_RATES, DELAYED),
        columns=LOAD_COLUMNS,
    ),
    # ------------------------------------------------------------ Fabric++ (Figures 17-19)
    "fig17": ExperimentSpec(
        artefact="Figure 17",
        section="5.2.1",
        title="Figure 17: Fabric++ vs Fabric 1.4 over the block size",
        summary="Figure 17: Fabric++ vs Fabric 1.4 at different block sizes",
        sweep_axes=("block_size",),
        variants="fabric-1.4 vs fabric++",
        expected_trend="reordering converts intra-block MVCC conflicts into fewer total failures",
        axes=(FABRIC_PP, Axis("block_size", (10, 50, 100))),
        columns=("failures_pct", "endorsement_pct"),
    ),
    "fig18": ExperimentSpec(
        artefact="Figure 18",
        section="5.2.3",
        title="Figure 18: Fabric++ vs Fabric 1.4 across chaincodes",
        summary="Figure 18: Fabric++ vs Fabric 1.4 across the use-case chaincodes",
        sweep_axes=("chaincode",),
        variants="fabric-1.4 vs fabric++",
        expected_trend="Fabric++ helps point-read chaincodes but pays for large range reads (DV, SCM)",
        axes=(FABRIC_PP, Axis("chaincode", ("EHR", "DV", "SCM", "DRM"))),
        columns=("latency_s", "failures_pct"),
    ),
    "fig19": ExperimentSpec(
        artefact="Figure 19",
        section="5.2.3",
        title="Figure 19: Fabric++ vs Fabric 1.4 across workloads and Zipfian skew",
        summary="Figure 19: Fabric++ vs Fabric 1.4 across workloads and key skew",
        sweep_axes=("workload_mix", "zipf_skew"),
        variants="fabric-1.4 vs fabric++",
        expected_trend="Fabric++'s advantage grows with contention (skewed, update-heavy workloads)",
        axes=(FABRIC_PP, workload_series()),
        columns=("failures_pct",),
    ),
    # --------------------------------------------------------- Streamchain (Figures 20-23)
    "fig20": ExperimentSpec(
        artefact="Figure 20",
        section="5.3.1",
        title="Figure 20: Streamchain vs Fabric 1.4 (latency, endorsement, MVCC)",
        summary="Figure 20: Streamchain vs Fabric 1.4 at low arrival rates (block size 10)",
        sweep_axes=("arrival_rate",),
        variants="fabric-1.4 vs streamchain",
        expected_trend="streaming blocks of one cut latency by an order of magnitude at low load",
        base={"cluster": "C1", "block_size": 10},
        axes=(STREAMCHAIN, LOW_RATES),
        columns=LOAD_COLUMNS,
    ),
    # C1 at 150 and 200 tps, C2 at 100 tps; Fabric 1.4 uses a block size of 50
    # (the paper reports similar results for block sizes 10, 50 and 100 — the
    # smallest setting overloads the simulated ordering service sooner than the
    # real system, so the mid setting is used here).
    "fig21": ExperimentSpec(
        artefact="Figure 21",
        section="5.3.1",
        title="Figure 21: committed transaction throughput at high arrival rates",
        summary="Figure 21: committed transaction throughput at high arrival rates",
        sweep_axes=("arrival_rate",),
        variants="fabric-1.4 vs streamchain",
        expected_trend="per-transaction streaming saturates earlier than batched ordering",
        base={"block_size": 50},
        axes=(HIGH_LOADS, STREAMCHAIN),
        columns=("committed_throughput_tps",),
    ),
    "fig22": ExperimentSpec(
        artefact="Figure 22",
        section="5.3.2",
        title="Figure 22: Streamchain vs Fabric 1.4 across workloads and Zipfian skew",
        summary="Figure 22: Streamchain vs Fabric 1.4 across workloads and key skew (C2, 50 tps)",
        sweep_axes=("workload_mix", "zipf_skew"),
        variants="fabric-1.4 vs streamchain",
        expected_trend="Streamchain trades throughput headroom for near-zero intra-block conflicts",
        base={"arrival_rate": 50.0},
        axes=(STREAMCHAIN, workload_series()),
        columns=("failures_pct",),
    ),
    "fig23": ExperimentSpec(
        artefact="Figure 23",
        section="5.3.3",
        title="Figure 23: Streamchain with and without a RAM disk",
        summary="Figure 23: Streamchain with and without RAM-disk storage",
        sweep_axes=("use_ram_disk",),
        variants="streamchain",
        expected_trend="without a RAM disk the per-block fsync penalty erases Streamchain's latency win",
        base={"cluster": "C1", "block_size": 10},
        axes=(Axis("system", RAM_DISK_SYSTEMS), Axis("arrival_rate", (10, 50))),
        columns=LOAD_COLUMNS,
    ),
    # --------------------------------------------------------- FabricSharp (Figures 24-25)
    "fig24": ExperimentSpec(
        artefact="Figure 24",
        section="5.4.1-5.4.2",
        title="Figure 24: FabricSharp vs Fabric 1.4",
        summary="Figure 24: FabricSharp vs Fabric 1.4 — failures, endorsement failures, throughput",
        sweep_axes=("arrival_rate",),
        variants="fabric-1.4 vs fabricsharp",
        expected_trend="early aborts never reach a block: fewer recorded failures, lower committed throughput",
        axes=(FABRICSHARP, LOW_RATES),
        columns=("failures_pct", "endorsement_pct", "mvcc_pct", "committed_throughput_tps"),
    ),
    # The range-heavy workload is omitted because FabricSharp does not support
    # range queries (see also :func:`cell_config`).
    "fig25": ExperimentSpec(
        artefact="Figure 25",
        section="5.4.3",
        title="Figure 25: FabricSharp vs Fabric 1.4 across workloads and Zipfian skew",
        summary="Figure 25: FabricSharp vs Fabric 1.4 across workloads and key skew",
        sweep_axes=("workload_mix", "zipf_skew"),
        variants="fabric-1.4 vs fabricsharp",
        expected_trend="snapshot staleness raises endorsement failures while early aborts absorb MVCC",
        axes=(FABRICSHARP, workload_series(("RH", "IH", "UH", "DH"))),
        columns=("failures_pct",),
    ),
    # ------------------------------------------ system comparison (Figure 26) and ablations
    "fig26": ExperimentSpec(
        artefact="Figure 26",
        section="5.5",
        title="Figure 26: comparison of Fabric 1.4, Fabric++, Streamchain and FabricSharp",
        summary="Figure 26: all four Fabric systems compared on the C1 cluster (EHR)",
        sweep_axes=("variant",),
        variants="all four",
        expected_trend="no variant dominates: each trades failures, latency and throughput differently",
        base={"cluster": "C1", "block_size": 10},
        axes=(Axis("variant", ("fabric-1.4", "fabric++", "streamchain", "fabricsharp")), LOW_RATES),
        columns=LOAD_COLUMNS + ("failures_pct",),
    ),
    "ablation-adaptive": ExperimentSpec(
        section="6.2",
        title="Ablation: adaptive block size vs static block sizes",
        summary="Ablation (Section 6.2): static block sizes vs the adaptive controller",
        sweep_axes=("block_size_controller",),
        expected_trend="the adaptive controller tracks the best static block size within a few percent",
        axes=(Axis(("arrival_rate", "policy"), adaptive_block_sizes),),
        columns=("block_size", "failures_pct"),
    ),
    "ablation-readonly": ExperimentSpec(
        section="6.1",
        title="Ablation: submitting vs skipping read-only transactions",
        summary="Ablation (Section 6.1, client design): skip ordering for read-only transactions",
        sweep_axes=("submit_read_only",),
        expected_trend="answering read-only queries locally removes their ordering/validation cost",
        axes=(Axis("submit_read_only", (True, False)),),
        columns=("failures_pct", "latency_s", "committed_throughput_tps"),
    ),
    "ablation-client-check": ExperimentSpec(
        section="2",
        title="Ablation: optional client-side check of endorsement consistency",
        summary="Ablation (Section 2, step 3): client-side endorsement consistency check",
        sweep_axes=("client_side_check",),
        expected_trend="client-side mismatch checks drop doomed transactions before ordering",
        axes=(Axis("client_side_check", (False, True)),),
        columns=("failures_pct", "endorsement_pct", "latency_s"),
    ),
    # ------------------------------------- multi-channel scaling (extension beyond the paper)
    # The workload saturates a single ordering service (small blocks, high
    # arrival rate on the C1 cluster), so sharding the key space across channels
    # raises aggregate committed throughput while the per-channel load drop
    # shrinks the MVCC conflict window and with it the abort rate.
    "channels-scaling": ExperimentSpec(
        title="Channel scaling: throughput and failures vs channel count (hash placement)",
        summary="Channel scaling: throughput and abort profile vs the channel count",
        sweep_axes=("channels",),
        expected_trend="sharding a saturated orderer across channels raises aggregate throughput",
        base={**SATURABLE_C1, "arrival_rate": 400.0, "placement": "hash"},
        axes=(Axis("channels", (1, 2, 4, 8)),),
        columns=("placement", "committed_throughput_tps", "mvcc_pct", "failures_pct", "latency_s"),
    ),
    # As the fraction of transactions spanning two channels grows, the two-phase
    # prepare consumes partner-orderer time and its no-wait locks collide more
    # often, so aggregate throughput falls and ``CROSS_CHANNEL_ABORT`` rises.
    "channels-cross": ExperimentSpec(
        title="Cross-channel workloads: effect of the cross-channel fraction (4 channels)",
        summary="Cross-channel workloads: throughput and 2PC aborts vs the cross fraction",
        sweep_axes=("cross_channel_rate",),
        expected_trend="cross-channel 2PC aborts grow with the cross fraction; throughput falls",
        base={**SATURABLE_C1, "arrival_rate": 400.0, "channels": 4},
        axes=(Axis("cross_channel_rate", (0.0, 0.1, 0.3, 0.5)),),
        columns=("committed_throughput_tps", "cross_channel_abort_pct", "mvcc_pct", "failures_pct"),
    ),
    # ------------------------------------------ client retries (extension beyond the paper)
    # A skewed workload on the C1 cluster produces heavy MVCC contention while
    # leaving the ordering service spare capacity, so resubmissions are absorbed
    # rather than queued.  Retries cannot change the *raw* (per-attempt) failure
    # rate much — every resubmission re-enters the same conflict window — but
    # they sharply lower the *client-effective* failure rate (requests that
    # never commit), at the cost of amplified submitted load.  Jittered
    # exponential backoff decorrelates the resubmissions of simultaneously
    # failed transactions, keeping goodput at the no-retry baseline where the
    # synchronized policies lose some of it to re-created conflict batches.
    "retry-mitigation": ExperimentSpec(
        title="Retry mitigation: failure rates and goodput per policy (3 retries)",
        summary="Client retry policies: raw vs client-effective failure rate and goodput",
        sweep_axes=("retry_policy",),
        expected_trend="retries cut the client-effective failure rate; jittered backoff keeps goodput",
        base={
            **SATURABLE_C1,
            "arrival_rate": 50.0,
            "zipf_skew": 1.4,
            "retry.max_retries": 3,
            "retry.backoff": 0.05,
            "retry.max_backoff": 0.25,
        },
        axes=(Axis("retry_policy", ("none", "immediate", "fixed", "jittered"), param="retry.policy"),),
        columns=(
            "raw_failure_pct", "client_effective_failure_pct", "goodput_tps",
            "committed_throughput_tps", "resubmissions", "retry_amplification",
        ),
    ),
    # An aggressive immediate-retry policy on a near-saturated deployment
    # amplifies every conflict into more submitted load.  The deployment-wide
    # resubmission governor (a virtual-time token bucket shared by all
    # channels) bounds that amplification: tightening the cap sheds
    # resubmissions, which trades some client-effective failures for a shorter
    # queue and a goodput close to the uncapped baseline.
    "retry-storm": ExperimentSpec(
        title="Retry storms: amplification and goodput vs resubmission rate cap (immediate)",
        summary="Retry storms vs the global resubmission rate cap",
        sweep_axes=("retry_rate_cap",),
        expected_trend="the global resubmission cap bounds retry amplification at little goodput cost",
        base={
            **SATURABLE_C1,
            "arrival_rate": 100.0,
            "zipf_skew": 1.2,
            "retry.policy": "immediate",
            "retry.max_retries": 3,
        },
        axes=(Axis("rate_cap", RATE_CAPS),),
        columns=(
            "retry_amplification", "resubmissions", "rate_denied",
            "client_effective_failure_pct", "goodput_tps",
        ),
    ),
    # ------------------------- fault injection (extension beyond the paper, see repro.faults)
    # Each cell exposes the C1 deployment to a Poisson peer-crash process of the
    # given rate (mean downtime 2 s); ``0.0`` is the healthy baseline on the
    # bit-identical no-fault path.  Crashed endorsers fail proposals fast
    # (``PEER_UNAVAILABLE``) and lag behind on block delivery when they recover,
    # so committed throughput and goodput degrade with the crash rate while the
    # infrastructure failure classes grow.
    "fault-resilience": ExperimentSpec(
        title="Fault resilience: committed throughput vs peer crash rate (downtime 2s)",
        summary="Fault resilience: throughput and failure profile vs the peer crash rate",
        sweep_axes=("peer_crash_rate",),
        expected_trend="committed throughput and goodput degrade with the peer crash rate",
        base={**SATURABLE_C1, "arrival_rate": 60.0, "faults.peer_downtime": 2.0},
        axes=(Axis("peer_crash_rate", (0.0, 0.1, 0.2, 0.4), param="faults.peer_crash_rate"),),
        columns=(
            "committed_throughput_tps", "goodput_tps", "peer_unavailable_pct",
            "endorsement_timeout_pct", "failures_pct", "latency_s",
        ),
    ),
    # The same chaos profile — crashing peers, one mid-run orderer outage
    # window, a small endorsement loss rate — is run once per retry policy at
    # an arrival rate that leaves the deployment headroom.  Fault-induced
    # aborts are *transient* (the peer recovers, the outage ends), which makes
    # them the best case for client retries: a resubmission can land on a
    # healthy deployment.  The backoff schedule matters, though — immediate
    # retries burn the whole budget while the fault still holds, while
    # jittered exponential backoff outlasts the downtime and recovers a
    # measurable fraction of the requests (and therefore the goodput) the
    # no-retry clients permanently lose.  ``recovered_request_pct`` reports,
    # per policy, the share of the no-retry baseline's lost requests that
    # ended up committing.
    "fault-retry": ExperimentSpec(
        title="Fault/retry interaction: requests recovered under chaos per retry policy (crash 0.2/s)",
        summary="Retries under chaos: how many lost requests client resubmission recovers",
        sweep_axes=("retry_policy",),
        expected_trend="jittered retries outlast transient faults and recover lost requests",
        base={
            **SATURABLE_C1,
            "arrival_rate": 30.0,
            "faults.peer_crash_rate": 0.2,
            "faults.peer_downtime": 1.5,
            "faults.orderer_outages": mid_run_outage,
            "faults.endorsement_loss_rate": 0.03,
            "retry.max_retries": 5,
            "retry.backoff": 0.1,
            "retry.max_backoff": 1.5,
        },
        axes=(Axis("retry_policy", ("none", "immediate", "jittered"), param="retry.policy"),),
        baseline="none",
        columns=(
            "committed_requests", "logical_requests", "recovered_request_pct",
            "client_effective_failure_pct", "goodput_tps", "resubmissions", "retry_amplification",
        ),
    ),
}
