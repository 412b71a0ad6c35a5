"""The four benchmark workloads over the reliable-device stack.

Every workload is an open loop in *simulated* time: arrivals are drawn
from a Poisson process at a fixed simulated rate and scheduled on the
cluster's simulator, so the offered load is the same on every commit and
wall speed only changes how fast a round finishes.  The simulated
network delivers instantly, so an operation's latency is processor time
only.  Each workload's inputs -- arrival gaps, origins, block choices,
payloads, file-system calls -- are generated here from the seed and fed
to the program through its public calls.

A *round* builds a fresh stack (the timed set-up) and replays the whole
input script on it.  Every round of a run replays the same script, so
the simulated message and byte counts per operation are a pure function
of the seed, however many rounds fit in the measured time.
"""

from __future__ import annotations

import math
import struct
from array import array
from dataclasses import dataclass, field, replace
from time import perf_counter, thread_time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.device.cluster import ClusterConfig, ReplicatedCluster
from repro.device.driver import DeviceDriverStub
from repro.errors import DeviceError, FileSystemError
from repro.faults import chaos
from repro.faults.chaos import ChaosConfig
from repro.fs import FileSystem
from repro.obs import Tracer
from repro.types import SchemeName

from oracles import BlockOracle, FsModel, OracleError

_STAMP = struct.Struct("<Q")


@dataclass
class Latencies:
    """Wall time of each entry call the benchmark makes, in seconds."""

    read: array
    write: array

    @classmethod
    def empty(cls) -> "Latencies":
        return cls(array("d"), array("d"))


@dataclass
class RoundStats:
    """What one round did: operations, failures and simulated traffic."""

    ops: int
    #: Operations that failed for good (given up after every retry).
    failed: int
    msgs: int
    bytes: int
    wall_s: float
    #: Processor time of the round's simulation (this thread only).
    cpu_s: float
    #: Entry-call latencies of the round (untraced runs only).
    lat: Optional[Latencies] = None
    #: Counts read off the program's own result (chaos-traced only).
    counters: Dict[str, int] = field(default_factory=dict)
    #: Attempts the group could not serve, each retried by the client.
    retries: int = 0


#: Simulated time a client waits before it retries an operation the
#: group could not serve (a failed site is repaired after 1 on average).
RETRY_DELAY = 0.25
#: Retries after which a client gives the operation up as failed: 50
#: units of simulated time, far longer than any outage these workloads
#: see, so only a program that stays unavailable makes operations fail.
MAX_RETRIES = 200


def open_loop(
    cluster, delays: List[float], serve: Callable[[int], bool], trace
) -> Tuple[float, float, int, int]:
    """Serve arrival ``i`` after gap ``delays[i]`` in simulated time.

    ``serve(i)`` returns False when the group could not serve arrival
    ``i`` (no quorum, or no available copy); the client then retries it
    every :data:`RETRY_DELAY` until it is served, or gives it up after
    :data:`MAX_RETRIES`.  Failures and repairs run between arrivals; the
    run stops once the last arrival and every retry are done, because
    the failure/repair process schedules events forever.  Returns the
    wall and the processor seconds the simulation took, the retries
    made and the arrivals given up.
    """
    sim = cluster.sim
    schedule = sim.schedule
    last = len(delays) - 1
    pending = retries = given_up = 0
    arrived = False

    def attempt(i: int) -> bool:
        if trace is not None:
            trace.op = i
        return serve(i)

    def retry(i: int, tries: int) -> None:
        nonlocal pending, retries, given_up
        if attempt(i):
            pending -= 1
        elif tries < MAX_RETRIES:
            retries += 1
            schedule(RETRY_DELAY, retry, i, tries + 1)
            return
        else:
            pending -= 1
            given_up += 1
        if arrived and not pending:
            sim.stop()

    def arrive(i: int) -> None:
        nonlocal pending, retries, arrived
        if not attempt(i):
            pending += 1
            retries += 1
            schedule(RETRY_DELAY, retry, i, 1)
        if i < last:
            schedule(delays[i + 1], arrive, i + 1)
        else:
            arrived = True
            if not pending:
                sim.stop()

    schedule(delays[0], arrive, 0)
    start, cpu = perf_counter(), thread_time()
    cluster.run_until(math.inf)
    return perf_counter() - start, thread_time() - cpu, retries, given_up


class Workload:
    """One named input mix; subclasses fix the stack and the script."""

    #: Whether :meth:`run` times the entry calls it makes.
    has_latencies = True

    def setup(self):
        """Build a fresh stack for one round (the timed set-up)."""
        raise NotImplementedError

    def run(self, stack, lat: Optional[Latencies], trace=None) -> RoundStats:
        """Replay the script on ``stack``; record call latencies in
        ``lat`` and the current operation id on ``trace`` when given."""
        raise NotImplementedError


# -- block workloads ----------------------------------------------------------


class BlockWorkload(Workload):
    """Reliable-device block accesses from uniformly random origins.

    ``batch`` blocks per arrival: 1 uses ``read_block``/``write_block``,
    more uses ``read_blocks``/``write_blocks`` on distinct blocks.
    """

    def __init__(
        self,
        seed: int,
        *,
        scheme: SchemeName,
        sites: int,
        blocks: int,
        block_size: int,
        rho: float,
        read_share: float,
        batch: int,
        rate: float,
        arrivals: int,
    ) -> None:
        self.config = ClusterConfig(
            scheme=scheme,
            num_sites=sites,
            num_blocks=blocks,
            block_size=block_size,
            failure_rate=rho,
            repair_rate=1.0,
            seed=seed,
        )
        self.batch = batch
        rng = np.random.default_rng([seed, 1])
        self.delays: List[float] = rng.exponential(1.0 / rate, arrivals).tolist()
        self.reads: List[bool] = (rng.random(arrivals) < read_share).tolist()
        self.origins: List[int] = rng.integers(0, sites, arrivals).tolist()
        if batch == 1:
            self.targets: List = rng.integers(0, blocks, arrivals).tolist()
        else:
            draws = rng.integers(0, blocks, (arrivals, 4 * batch)).tolist()
            self.targets = []
            for row in draws:
                chosen = list(dict.fromkeys(row))[:batch]
                if len(chosen) < batch:  # pragma: no cover - p ~ 1e-40
                    raise ValueError("could not draw a distinct batch")
                self.targets.append(chosen)
        # One unique payload per written block: a running stamp in the
        # first eight bytes, seeded random bytes after it.
        written = sum(
            batch for is_read in self.reads if not is_read
        )
        raw = rng.bytes(written * block_size)
        payloads = [
            _STAMP.pack(k) + raw[k * block_size + 8:(k + 1) * block_size]
            for k in range(written)
        ]
        self.payloads: List = [None] * arrivals
        k = 0
        for i, is_read in enumerate(self.reads):
            if is_read:
                continue
            if batch == 1:
                self.payloads[i] = payloads[k]
            else:
                self.payloads[i] = dict(
                    zip(self.targets[i], payloads[k:k + batch])
                )
            k += batch

    def setup(self):
        cluster = ReplicatedCluster(self.config)
        devices = [
            cluster.device(origin=s, failover=True)
            for s in range(self.config.num_sites)
        ]
        return cluster, devices

    def run(self, stack, lat: Optional[Latencies], trace=None) -> RoundStats:
        cluster, devices = stack
        cfg = self.config
        oracle = BlockOracle(cfg.num_blocks, cfg.block_size)
        reads, origins = self.reads, self.origins
        targets, payloads = self.targets, self.payloads
        rlat = lat.read.append if lat is not None else None
        wlat = lat.write.append if lat is not None else None

        def serve_one(i: int) -> bool:
            dev = devices[origins[i]]
            block = targets[i]
            if reads[i]:
                t0 = perf_counter()
                try:
                    data = dev.read_block(block)
                except DeviceError:
                    return False
                if rlat is not None:
                    rlat(perf_counter() - t0)
                oracle.check_read(block, data)
            else:
                value = payloads[i]
                t0 = perf_counter()
                try:
                    dev.write_block(block, value)
                except DeviceError:
                    oracle.write_failed(block, value)
                    return False
                if wlat is not None:
                    wlat(perf_counter() - t0)
                oracle.write_ok(block, value)
            return True

        def serve_batch(i: int) -> bool:
            dev = devices[origins[i]]
            if reads[i]:
                blocks = targets[i]
                t0 = perf_counter()
                try:
                    got = dev.read_blocks(blocks)
                except DeviceError:
                    return False
                if rlat is not None:
                    rlat(perf_counter() - t0)
                if len(got) != len(blocks):
                    raise OracleError("a batched read lost blocks")
                for block, data in got.items():
                    oracle.check_read(block, data)
            else:
                writes = payloads[i]
                t0 = perf_counter()
                try:
                    dev.write_blocks(writes)
                except DeviceError:
                    for block, data in writes.items():
                        oracle.write_failed(block, data)
                    return False
                if wlat is not None:
                    wlat(perf_counter() - t0)
                for block, data in writes.items():
                    oracle.write_ok(block, data)
            return True

        wall, cpu, retries, given_up = open_loop(
            cluster, self.delays,
            serve_one if self.batch == 1 else serve_batch, trace,
        )
        return RoundStats(
            ops=len(self.delays) * self.batch,
            failed=given_up * self.batch,
            msgs=cluster.meter.total,
            bytes=cluster.meter.total_bytes,
            wall_s=wall,
            cpu_s=cpu,
            retries=retries * self.batch,
        )


def mcv_block(seed: int, scale: float = 1.0) -> BlockWorkload:
    # 16384 arrivals at 50 per unit of simulated time span ~330 units:
    # about 30 failures and lazy repairs per round next to the operations.
    return BlockWorkload(
        seed,
        scheme=SchemeName.VOTING,
        sites=5,
        blocks=1024,
        block_size=512,
        rho=0.02,
        read_share=2.5 / 3.5,
        batch=1,
        rate=50.0,
        arrivals=max(64, int(16384 * scale)),
    )


def nac_recovery(seed: int, scale: float = 1.0) -> BlockWorkload:
    # 4096 batches at 8 per unit span ~510 units: about 250 repairs per
    # round, whose recovery takes about two thirds of the wall time.
    return BlockWorkload(
        seed,
        scheme=SchemeName.NAIVE_AVAILABLE_COPY,
        sites=5,
        blocks=4096,
        block_size=512,
        rho=0.1,
        read_share=1.0 / 3.0,
        batch=8,
        rate=8.0,
        arrivals=max(32, int(4096 * scale)),
    )


# -- ac-fs: the whole Fig. 1 stack ------------------------------------------------


FsOp = Tuple  # ("read"|"stat"|"write"|"create"|"unlink"|"mkdir"|"rename", ...)

#: Calls that only observe the file system; the rest change it.
READ_KINDS = frozenset({"read", "stat"})


#: 10 directories of 19 files: about 200 paths.
DIRS, FILES_PER_DIR = 10, 19
#: Live file data stays under 1 MiB of the 2 MiB device, so it never
#: fills; one file stays under the 69 KiB the inode geometry maps.
LIVE_BUDGET, MAX_FILE = 1 << 20, 60 * 1024


def fs_script(rng: np.random.Generator, calls: int) -> List[FsOp]:
    """A valid sequence of ``calls`` file-system calls.

    Each call targets a file drawn Zipf-skewed (rank ``k`` has weight
    ``1/k``); a missing parent is made first, a missing file created
    first.  Writes land at offset 0 or append, with sizes log-uniform
    from 64 B to 24 KiB, so files span the direct and the indirect
    blocks.
    """
    dir_paths = [f"/d{d}" for d in range(DIRS)]
    files = [f"{p}/f{j}" for p in dir_paths for j in range(FILES_PER_DIR)]
    order = rng.permutation(len(files))
    ranked = [files[k] for k in order]
    weights = 1.0 / np.arange(1, len(ranked) + 1)
    picks = rng.choice(len(ranked), size=calls, p=weights / weights.sum())
    present_dirs = set()
    sizes: Dict[str, int] = {}
    live = 0
    script: List[FsOp] = []
    for pick in picks.tolist():
        path = ranked[pick]
        parent = path.rsplit("/", 1)[0]
        if parent not in present_dirs:
            present_dirs.add(parent)
            script.append(("mkdir", parent))
            continue
        if path not in sizes:
            sizes[path] = 0
            script.append(("create", path))
            continue
        u = rng.random()
        if u < 0.45:
            script.append(("read", path))
        elif u < 0.75:
            size = int(math.exp(rng.uniform(math.log(64), math.log(24576))))
            offset = 0 if rng.random() < 0.7 else sizes[path]
            end = max(sizes[path], offset + size)
            if end > MAX_FILE or live + end - sizes[path] > LIVE_BUDGET:
                live -= sizes.pop(path)
                script.append(("unlink", path))
                continue
            live += end - sizes[path]
            sizes[path] = end
            script.append(("write", path, offset, rng.bytes(size)))
        elif u < 0.85:
            script.append(("stat", path))
        elif u < 0.93:
            live -= sizes.pop(path)
            script.append(("unlink", path))
        else:
            target = ranked[int(rng.integers(len(ranked)))]
            if target in sizes or target.rsplit("/", 1)[0] not in present_dirs:
                script.append(("stat", path))
                continue
            sizes[target] = sizes.pop(path)
            script.append(("rename", path, target))
    return script


class AcFsWorkload(Workload):
    """``FileSystem`` on a cached driver stub on AC with 4 sites.

    6000 calls at 10 per unit of simulated time span ~600 units, so
    about 25 crashes and repairs interleave with them.
    """

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.config = ClusterConfig(
            scheme=SchemeName.AVAILABLE_COPY,
            num_sites=4,
            num_blocks=4096,
            block_size=512,
            failure_rate=0.01,
            repair_rate=1.0,
            seed=seed,
        )
        rng = np.random.default_rng([seed, 2])
        calls = max(64, int(6000 * scale))
        self.script = fs_script(rng, calls)
        self.delays: List[float] = rng.exponential(0.1, calls).tolist()

    def setup(self):
        cluster = ReplicatedCluster(self.config)
        stub = DeviceDriverStub(cluster.device(), cache_blocks=64)
        return cluster, FileSystem.format(stub)

    def run(self, stack, lat: Optional[Latencies], trace=None) -> RoundStats:
        """The script is valid on a correct file system, so a call fails
        only on a ``DeviceError``, or on a ``FileSystemError`` about a
        path that an earlier device failure left unknown.  Any other
        error is a wrong result.  A failed call may have been half
        applied, so it is counted as failed and not retried."""
        cluster, fs = stack
        model = FsModel()
        script = self.script
        failed = [0]

        def serve(i: int) -> bool:
            op = script[i]
            kind, path = op[0], op[1]
            t0 = perf_counter()
            try:
                if kind == "read":
                    data = fs.read_file(path)
                elif kind == "stat":
                    size = fs.stat(path).size
                elif kind == "write":
                    fs.write_file(path, op[3], op[2])
                elif kind == "create":
                    fs.create(path)
                elif kind == "unlink":
                    fs.unlink(path)
                elif kind == "mkdir":
                    fs.mkdir(path)
                else:
                    fs.rename(path, op[2])
            except (DeviceError, FileSystemError) as exc:
                if not isinstance(exc, DeviceError) and model.knows(op):
                    raise OracleError(
                        f"{kind}{op[1:3]!r} raised {type(exc).__name__} "
                        f"({exc}) on a path the model knows"
                    ) from exc
                failed[0] += 1
                model.forget(op)
                return True
            elapsed = perf_counter() - t0
            if kind == "read":
                model.check_read(path, data)
            elif kind == "stat":
                model.check_size(path, size)
            else:
                model.apply(op)
            if lat is not None:
                (lat.read if kind in READ_KINDS else lat.write).append(elapsed)
            return True

        wall, cpu, _, _ = open_loop(cluster, self.delays, serve, trace)
        if trace is not None:
            trace.active = False  # the final check is not workload
        model.check_tree(fs.walk(), fs.read_file)
        return RoundStats(
            ops=len(script),
            failed=failed[0],
            msgs=cluster.meter.total,
            bytes=cluster.meter.total_bytes,
            wall_s=wall,
            cpu_s=cpu,
        )


# -- chaos-traced: faults, membership and the program's tracer --------------------


class ChaosWorkload(Workload):
    """``run_chaos`` on MCV with reconfiguration and batches, traced
    by the program's own ``Tracer`` as ``repro chaos --reconfigure
    --trace`` runs it.  ``run_chaos`` makes the device calls itself, so
    this workload records no call latencies."""

    has_latencies = False

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.config = ChaosConfig(
            scheme=SchemeName.VOTING,
            seed=seed,
            operations=max(40, int(3000 * scale)),
            reconfigure_rate=0.08,
            batch_rate=0.2,
        )

    def setup(self):
        # run_chaos builds its group internally; its fixed cost is a
        # zero-step run (build, final repair, scrub, read-back, check).
        empty = chaos.run_chaos(
            replace(self.config, operations=0), tracer=Tracer()
        )
        if not empty.ok:
            raise OracleError(f"chaos checker failed: {empty.summary()}")
        return self.config

    def run(self, stack, lat: Optional[Latencies], trace=None) -> RoundStats:
        tracer = Tracer()
        start, cpu = perf_counter(), thread_time()
        result = chaos.run_chaos(stack, tracer=tracer)
        wall, cpu = perf_counter() - start, thread_time() - cpu
        if not result.ok:
            raise OracleError(f"chaos checker failed: {result.summary()}")
        failed = result.reads_failed + result.writes_failed
        return RoundStats(
            ops=result.reads_ok + result.writes_ok + failed,
            failed=failed,
            msgs=result.messages,
            bytes=result.bytes_total,
            wall_s=wall,
            cpu_s=cpu,
            counters={
                "view_changes": result.view_changes,
                "injected": result.injected.total_faults,
                "program_spans": len(tracer),
            },
        )


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    "mcv-block": mcv_block,
    "nac-recovery": nac_recovery,
    "ac-fs": AcFsWorkload,
    "chaos-traced": ChaosWorkload,
}
