"""Which layer of ``src/repro`` the host time of a job went to.

A traced trial runs its job under :mod:`cProfile`, installed from here — nothing
under ``src/`` is edited.  Every profiled function is mapped to a *layer* by the
file it lives in:

* ``src/repro/<pkg>/…`` is layer ``<pkg>``; ``sim`` and ``network`` are split
  one level further (``sim.engine``, ``network.peer``, …), so a package added
  later becomes its own layer with no edit here;
* stdlib ``random`` is ``sim.rng``, ``networkx`` is ``fabric``, ``pickle`` and
  ``multiprocessing`` are ``proc``;
* builtins and every other non-repro function have no layer of their own: their
  time is charged to whoever called them.  cProfile aggregates per function, so
  where such a function has callers in several layers its time is split between
  them in proportion to the cumulative time of each caller→callee edge;
* what cannot be attributed (the trial harness itself) is ``other``.

Per layer the roll-up gives ``self_s`` (time in the layer's own frames plus the
builtins it called; the column sums to the traced wall), ``calls`` (calls into
the layer's own functions from outside them — an integer that repeats exactly
when the run does), and for every ordered pair of different layers an *edge*:
how many calls crossed that boundary and the cumulative seconds spent below it.
"""

from __future__ import annotations

import cProfile
import multiprocessing
import os
import pickle
import random
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import repro

OTHER = "other"

#: Packages whose modules are layers of their own.
SPLIT_PACKAGES = ("sim", "network")

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_PERFBENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep
_MULTIPROCESSING_DIR = os.path.dirname(os.path.abspath(multiprocessing.__file__)) + os.sep
_FILE_LAYERS = {
    os.path.abspath(random.__file__): "sim.rng",
    os.path.abspath(pickle.__file__): "proc",
}

#: Rounds of caller→callee propagation: the depth of non-repro call chains
#: (``dataclasses.replace`` → ``__init__`` → builtin) this resolves exactly.
_ROUNDS = 12


def layer_of(code) -> Optional[str]:
    """The layer owning a profiled function, or ``None`` to inherit the caller's."""
    if isinstance(code, str):  # a builtin, named like "<built-in method _pickle.loads>"
        return "proc" if "_pickle" in code else None
    filename = code.co_filename
    if filename.startswith(_REPRO_DIR):
        parts = filename[len(_REPRO_DIR):].split(os.sep)
        package = parts[0].removesuffix(".py")
        if package in SPLIT_PACKAGES and len(parts) > 1:
            return f"{package}.{parts[1].removesuffix('.py')}"
        return package
    if filename.startswith(_PERFBENCH_DIR):
        return OTHER
    if filename.startswith(_MULTIPROCESSING_DIR):
        return "proc"
    if f"{os.sep}networkx{os.sep}" in filename:
        return "fabric"
    return _FILE_LAYERS.get(filename)


def profile(job: Callable[[], object]) -> Tuple[object, float, list]:
    """Run ``job`` under cProfile: its result, the traced wall and the raw stats."""
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    try:
        result = job()
    finally:
        profiler.disable()
    wall = time.perf_counter() - started
    return result, wall, profiler.getstats()


def roll_up(stats: list, traced_wall: float) -> dict:
    """Fold cProfile's per-function stats into per-layer rows and edges."""
    own: Dict[object, Optional[str]] = {_key(entry.code): layer_of(entry.code) for entry in stats}
    # callers[callee] = [(caller, calls, cumulative_s, self_s_of_callee_under_caller)]
    callers: Dict[object, List[Tuple[object, int, float, float]]] = defaultdict(list)
    for entry in stats:
        for sub in entry.calls or ():
            callers[_key(sub.code)].append(
                (_key(entry.code), sub.callcount, sub.totaltime, sub.inlinetime)
            )

    # Layer mix of every function: one layer for repro code, the callers' mix
    # (weighted by edge time) for everything else, resolved a round at a time.
    mix: Dict[object, Dict[str, float]] = {
        code: ({layer: 1.0} if layer is not None else {}) for code, layer in own.items()
    }
    inheriting = [code for code, layer in own.items() if layer is None]
    for _ in range(_ROUNDS):
        updated = {}
        for code in inheriting:
            blend: Dict[str, float] = defaultdict(float)
            total = 0.0
            for caller, _calls, cumulative, _self in callers.get(code, ()):
                weight = max(cumulative, 1e-12)
                total += weight
                for layer, share in mix[caller].items():
                    blend[layer] += weight * share
            updated[code] = (
                {layer: value / total for layer, value in blend.items()} if total else {}
            )
        mix.update(updated)

    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    edges: Dict[Tuple[str, str], List[float]] = defaultdict(lambda: [0.0, 0.0])
    for entry in stats:
        code = _key(entry.code)
        layer = own[code]
        incoming = callers.get(code, ())
        if layer is not None:
            self_s[layer] += entry.inlinetime
            entered = entry.callcount - sum(
                count for caller, count, _c, _s in incoming if own[caller] == layer
            )
            calls[layer] += max(entered, 0)
            for caller, count, cumulative, _self in incoming:
                for caller_layer, share in _resolved(mix[caller]).items():
                    if caller_layer != layer:
                        edge = edges[(caller_layer, layer)]
                        edge[0] += count * share
                        edge[1] += cumulative * share
        else:
            charged = 0.0
            for caller, _count, _cumulative, own_time in incoming:
                charged += own_time
                for caller_layer, share in _resolved(mix[caller]).items():
                    self_s[caller_layer] += own_time * share
            self_s[OTHER] += max(entry.inlinetime - charged, 0.0)

    names = sorted(set(self_s) | set(calls) | {OTHER})
    return {
        "traced_wall_s": traced_wall,
        "attributed_s": sum(self_s.values()),
        "calls_total": sum(entry.callcount for entry in stats),
        "layers": {
            name: {
                "self_s": self_s.get(name, 0.0),
                "self_share": self_s.get(name, 0.0) / traced_wall if traced_wall else 0.0,
                "calls": calls.get(name, 0),
            }
            for name in names
        },
        "edges": [
            {"caller": caller, "callee": callee, "count": round(count, 3), "cumulative_s": seconds}
            for (caller, callee), (count, seconds) in sorted(
                edges.items(), key=lambda item: -item[1][1]
            )
        ],
    }


def _key(code):
    """Identity of a profiled function: equal code objects are not the same function."""
    return code if isinstance(code, str) else id(code)


def _resolved(blend: Dict[str, float]) -> Dict[str, float]:
    """A layer mix with whatever stayed unresolved assigned to ``other``."""
    missing = 1.0 - sum(blend.values())
    if missing <= 1e-9:
        return blend
    return {**blend, OTHER: blend.get(OTHER, 0.0) + missing}
