"""Per-layer spans recorded from outside the program.

:class:`LayerTrace` installs timing wrappers around the public entry
points of each layer of the stack -- on the classes, so objects built
inside the program (``run_chaos`` builds its own group) are covered too
-- and records one span per call: name, start, end, parent span and the
operation id the benchmark set.  Spans stay in memory and are written out
when the run ends.  A layer's self time is the time its spans cover
minus the time their child spans cover.

Two limits follow from timing only the public entry points: the voting
handlers read ``Site._vget`` directly and ``Network.broadcast_round``
appends the program tracer's records inline, so that site and obs time
is counted as ``net`` self time.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.core.available_copy import AvailableCopyProtocol
from repro.core.naive import NaiveAvailableCopyProtocol
from repro.core.voting import VotingProtocol
from repro.device.block import BlockStore
from repro.device.cache import BufferCache
from repro.device.driver import DeviceDriverStub
from repro.device.reliable import ReliableDevice
from repro.device.site import Site
from repro.faults import chaos, checker
from repro.faults.injector import FaultInjector
from repro.fs import FileSystem
from repro.membership import MembershipManager
from repro.net.network import Network
from repro.obs import Tracer
from repro.sim.engine import Simulator

#: The layers, named by module, in stack order (Fig. 1, top down).
LAYERS = (
    "fs", "device.cache", "device.driver", "device.reliable", "core",
    "net", "device.site", "sim", "membership", "faults", "obs",
)

_BLOCK_IO = ("read_block", "write_block", "read_blocks", "write_blocks")

#: (layer, owner, entry points) for every timed boundary.
ENTRY_POINTS: Tuple[Tuple[str, object, Tuple[str, ...]], ...] = (
    ("fs", FileSystem, (
        "create", "mkdir", "unlink", "rmdir", "write_file", "read_file",
        "stat", "rename", "walk", "listdir", "exists", "truncate",
    )),
    ("device.cache", BufferCache, _BLOCK_IO),
    ("device.driver", DeviceDriverStub, _BLOCK_IO),
    ("device.reliable", ReliableDevice, _BLOCK_IO),
    *(
        ("core", cls, (
            "read", "write", "read_batch", "write_batch",
            "on_site_failed", "on_site_repaired",
        ))
        for cls in (
            VotingProtocol, AvailableCopyProtocol, NaiveAvailableCopyProtocol,
        )
    ),
    ("net", Network, (
        "broadcast_query", "broadcast_round", "broadcast_oneway",
        "unicast_query", "unicast_oneway",
    )),
    # Site binds its block accessors to the store's methods when it is
    # built, so the store's methods are the site's accessors.
    ("device.site", BlockStore, ("read", "write", "version")),
    ("device.site", Site, ("version_vector",)),
    ("sim", Simulator, ("run",)),
    ("membership", MembershipManager, (
        "open_add", "open_remove", "open_replace", "step", "finalize",
        "force_commit",
    )),
    ("faults", chaos, ("run_chaos",)),
    ("faults", FaultInjector, (
        "corrupt_block", "crash_site", "repair_site",
        "arm_mid_write_crash", "drop_deliveries",
    )),
    ("faults", checker.HistoryRecorder, ("check",)),
    ("faults", checker, ("check_history",)),
    ("obs", Tracer, ("span", "event")),
)

#: Counters read off the instances a layer's entry points are called
#: on, as (field names, reader); a round's share is the change since the
#: instance's first traced call.
_PROBES: Dict[type, Tuple[Tuple[str, ...], Callable]] = {
    ReliableDevice: (("failovers", "retries", "rounds"), lambda d: (
        d.fault_stats.failovers,
        d.fault_stats.retries,
        d.fault_stats.read_rounds + d.fault_stats.write_rounds,
    )),
    BufferCache: (("cache_hits", "cache_misses"), lambda c: (
        c.cache_stats.hits, c.cache_stats.misses,
    )),
    DeviceDriverStub: (("forwarded",), lambda s: (s.forwarded,)),
}


def _defining_owner(owner, name: str):
    """The class (or module) whose namespace holds ``name``."""
    if isinstance(owner, type):
        for cls in owner.__mro__:
            if name in cls.__dict__:
                return cls
        raise AttributeError(f"{owner.__name__} has no {name}")
    return owner


class LayerTrace:
    """Spans at every layer boundary, recorded while :attr:`active`."""

    def __init__(self) -> None:
        self.active = False
        #: Operation id of the arrival being served (set by the workload).
        self.op = -1
        self.labels: List[str] = []
        self.label_layer: List[int] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self._stack: List[int] = []
        self.schedule_calls = 0
        self.recovery_msgs = 0
        self.counters: Dict[str, int] = {}
        self._seen: Dict[object, Tuple[type, Tuple[int, ...]]] = {}
        self._undo: List[Tuple[object, str, object]] = []

    # -- installing and removing the wrappers ------------------------------

    def install(self) -> "LayerTrace":
        done = set()
        for layer, owner, names in ENTRY_POINTS:
            for name in names:
                home = _defining_owner(owner, name)
                if (home, name) in done:
                    continue
                done.add((home, name))
                fn = home.__dict__[name]
                self._patch(home, name, self._timed(
                    layer, f"{getattr(home, '__name__', home)}.{name}", fn,
                    owner if owner in _PROBES else None,
                ))
        for cls in (
            VotingProtocol, AvailableCopyProtocol, NaiveAvailableCopyProtocol,
        ):
            self._patch(cls, "on_site_repaired", self._metered(
                cls.__dict__["on_site_repaired"]
            ))
        self._patch(Simulator, "schedule", self._counted(
            Simulator.__dict__["schedule"]
        ))
        return self

    def remove(self) -> None:
        for owner, name, fn in reversed(self._undo):
            setattr(owner, name, fn)
        self._undo.clear()

    def _patch(self, owner, name: str, fn) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, fn)

    def _timed(self, layer: str, label: str, fn, probed):
        label_id = len(self.labels)
        self.labels.append(label)
        self.label_layer.append(LAYERS.index(layer))
        trace = self
        stack = self._stack
        seen = self._seen
        name_add, start_add = self.name.append, self.start.append
        end, end_add = self.end, self.end.append
        parent_add, op_add = self.parent.append, self.op_id.append

        def wrapper(*args, **kwargs):
            if not trace.active:
                return fn(*args, **kwargs)
            if probed is not None and args[0] not in seen:
                seen[args[0]] = (probed, _PROBES[probed][1](args[0]))
            i = len(end)
            name_add(label_id)
            parent_add(stack[-1] if stack else -1)
            op_add(trace.op)
            end_add(0.0)
            stack.append(i)
            start_add(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()

        return wrapper

    def _metered(self, timed):
        """Count the messages a repair's recovery procedure sends."""
        trace = self

        def on_site_repaired(protocol, site_id):
            if not trace.active:
                return timed(protocol, site_id)
            before = protocol.meter.total
            try:
                return timed(protocol, site_id)
            finally:
                trace.recovery_msgs += protocol.meter.total - before

        return on_site_repaired

    def _counted(self, fn):
        trace = self

        def schedule(sim, delay, callback, *args):
            if trace.active:
                trace.schedule_calls += 1
            return fn(sim, delay, callback, *args)

        return schedule

    # -- per-round bookkeeping -----------------------------------------------

    def end_round(self) -> None:
        """Fold the instance counters the round moved into :attr:`counters`
        and drop the references, so the round's stack can be freed."""
        for obj, (cls, before) in self._seen.items():
            fields, probe = _PROBES[cls]
            for field, a, b in zip(fields, probe(obj), before):
                self.counters[field] = self.counters.get(field, 0) + a - b
        self._seen.clear()

    # -- analysis ------------------------------------------------------------

    def breakdown(self) -> Dict[str, Dict[str, float]]:
        """Per layer: entry calls, self seconds and span seconds by label.

        A call *enters* a layer when its parent span belongs to another
        layer (or there is none); nested calls inside one layer are
        part of the entering call.
        """
        n = len(self.end)
        start = np.frombuffer(self.start, dtype=np.float64, count=n)
        end = np.frombuffer(self.end, dtype=np.float64, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        name = np.frombuffer(self.name, dtype=np.int32, count=n)
        dur = end - start
        has_parent = parent >= 0
        covered = np.zeros(n)
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_time = dur - covered
        layer = np.asarray(self.label_layer, dtype=np.int64)[name]
        parent_layer = np.full(n, -1)
        parent_layer[has_parent] = layer[parent[has_parent]]
        entering = layer != parent_layer
        size = len(LAYERS)
        self_s = np.bincount(layer, weights=self_time, minlength=size)
        calls = np.bincount(layer[entering], minlength=size)
        by_label = np.bincount(name, weights=dur, minlength=len(self.labels))
        count_label = np.bincount(name, minlength=len(self.labels))
        out = {
            layer_name: {"calls": int(calls[k]), "self_s": float(self_s[k])}
            for k, layer_name in enumerate(LAYERS)
        }
        out["labels"] = {
            label: {"count": int(count_label[k]), "span_s": float(by_label[k])}
            for k, label in enumerate(self.labels)
        }
        return out

    def dump(self, path, provenance: Dict) -> None:
        """Write every span (and the label table) to an ``.npz`` file."""
        n = len(self.end)
        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.int32, count=n),
            start=np.frombuffer(self.start, dtype=np.float64, count=n),
            end=np.frombuffer(self.end, dtype=np.float64, count=n),
            parent=np.frombuffer(self.parent, dtype=np.int32, count=n),
            op=np.frombuffer(self.op_id, dtype=np.int32, count=n),
            labels=np.array(self.labels),
            label_layer=np.array([LAYERS[k] for k in self.label_layer]),
            provenance=np.array(json.dumps(provenance)),
        )
