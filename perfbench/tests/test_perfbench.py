"""Self-tests of the benchmark, on a tiny size of each workload.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from oracles import BlockOracle, FsModel, OracleError  # noqa: E402
from tracing import LAYERS, LayerTrace  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Latencies, RoundStats  # noqa: E402

from repro.device.reliable import ReliableDevice  # noqa: E402
from repro.errors import (  # noqa: E402
    DeviceUnavailableError,
    FileNotFoundFSError,
)
from repro.faults.checker import HistoryRecorder, Violation  # noqa: E402
from repro.fs import FileSystem  # noqa: E402
from repro.net.network import Network  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: A round of this size takes well under a second on every workload.
TINY = 0.03


def bench(workload, seed=7, trace=0, seconds=0.05, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace),
         "--scale", str(TINY)],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )
    return out


def result(out):
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    res = result(bench(workload, trace=trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["attempted"] >= 1
    wanted = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in res["metrics"].items()
    }
    if trace == 0:
        assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_same_seed_gives_identical_counts(workload):
    first, second = (result(bench(workload, seed=11)) for _ in range(2))
    for name in ("msgs_per_op", "bytes_per_op"):
        assert first["metrics"][name] == second["metrics"][name]
    # Rounds replay one script, so the failed share is per-seed fixed.
    assert (first["failed"] / first["attempted"]
            == second["failed"] / second["attempted"])


def test_rounds_without_call_latencies_omit_them():
    stats = RoundStats(ops=10, failed=1, msgs=20, bytes=30, wall_s=1.0,
                       cpu_s=0.5)
    metrics = run.end_to_end([stats], [0.1, 0.3], rss=50.0)
    assert not [m for m in metrics if m.startswith(("read_us", "write_us"))]
    assert metrics["ops_per_s"][0] == 20.0
    assert metrics["success_frac"][0] == 0.9


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = bench("mcv-block", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


# -- the oracles catch wrong results ----------------------------------------------


def test_block_oracle_rejects_a_wrong_read():
    oracle = BlockOracle(num_blocks=4, block_size=4)
    oracle.check_read(0, bytes(4))
    oracle.write_ok(0, b"new!")
    oracle.write_failed(0, b"torn")
    oracle.check_read(0, b"new!")
    oracle.check_read(0, b"torn")
    with pytest.raises(OracleError):
        oracle.check_read(0, bytes(4))
    oracle.write_ok(0, b"last")
    with pytest.raises(OracleError):
        oracle.check_read(0, b"torn")


def test_fs_model_rejects_a_wrong_read_and_a_wrong_tree():
    model = FsModel()
    model.apply(("mkdir", "/d"))
    model.apply(("create", "/d/f"))
    model.apply(("write", "/d/f", 0, b"hello"))
    model.apply(("write", "/d/f", 5, b" world"))
    model.check_read("/d/f", b"hello world")
    with pytest.raises(OracleError):
        model.check_read("/d/f", b"hello")
    with pytest.raises(OracleError):
        model.check_tree(["/d"], lambda p: b"hello world")
    model.forget(("write", "/d/f", 0, b"x"))
    model.check_read("/d/f", b"anything")  # unknown until settled


def _corrupt_reads(cls, name):
    original = cls.__dict__[name]

    def wrong(*args, **kwargs):
        data = original(*args, **kwargs)
        return data[:-1] + bytes([data[-1] ^ 0xFF]) if data else b"?"

    setattr(cls, name, wrong)
    return lambda: setattr(cls, name, original)


@pytest.mark.parametrize("workload, cls, name", [
    ("mcv-block", ReliableDevice, "read_block"),
    ("ac-fs", FileSystem, "read_file"),
])
def test_a_wrong_read_from_the_program_fails_the_round(workload, cls, name):
    w = WORKLOADS[workload](3, TINY)
    undo = _corrupt_reads(cls, name)
    try:
        with pytest.raises(OracleError):
            w.run(w.setup(), Latencies.empty())
    finally:
        undo()


def _raise_once(cls, name, exc):
    original = cls.__dict__[name]
    raised = []

    def failing(*args, **kwargs):
        if not raised:
            raised.append(True)
            raise exc
        return original(*args, **kwargs)

    setattr(cls, name, failing)
    return lambda: setattr(cls, name, original)


def test_a_file_system_error_on_a_known_path_fails_the_round():
    w = WORKLOADS["ac-fs"](3, TINY)
    undo = _raise_once(FileSystem, "read_file", FileNotFoundFSError("lost"))
    try:
        with pytest.raises(OracleError):
            w.run(w.setup(), None)
    finally:
        undo()


def test_a_device_error_is_a_failed_call_not_a_wrong_result():
    w = WORKLOADS["ac-fs"](3, TINY)
    undo = _raise_once(
        FileSystem, "write_file", DeviceUnavailableError("no quorum")
    )
    try:
        stats = w.run(w.setup(), None)
    finally:
        undo()
    assert stats.failed == 1


@pytest.mark.parametrize("workload, name", [
    ("mcv-block", "write_block"),
    ("nac-recovery", "write_blocks"),
])
def test_an_unavailable_block_write_is_retried_not_failed(workload, name):
    w = WORKLOADS[workload](3, TINY)
    undo = _raise_once(
        ReliableDevice, name, DeviceUnavailableError("no quorum")
    )
    try:
        stats = w.run(w.setup(), None)
    finally:
        undo()
    assert stats.failed == 0
    assert stats.retries == w.batch


def test_a_group_that_never_serves_fails_its_operations():
    w = WORKLOADS["mcv-block"](3, TINY)
    original = ReliableDevice.__dict__["read_block"]

    def unavailable(self, block):
        raise DeviceUnavailableError("no quorum")

    ReliableDevice.read_block = unavailable
    try:
        stats = w.run(w.setup(), None)
    finally:
        ReliableDevice.read_block = original
    reads = sum(w.reads)
    assert stats.failed == reads
    assert stats.retries == reads * workloads.MAX_RETRIES


def test_a_chaos_checker_violation_fails_the_round():
    w = WORKLOADS["chaos-traced"](3, TINY)
    original = HistoryRecorder.check
    HistoryRecorder.check = lambda self: [Violation(0, 0, b"x", "injected")]
    try:
        with pytest.raises(OracleError):
            w.run(w.setup(), None)
    finally:
        HistoryRecorder.check = original


# -- attribution: an injected slowdown is named -----------------------------------


def _self_times(workload):
    trace = LayerTrace().install()
    try:
        run.measure(workload, 0.0, timed=False, trace=trace)
    finally:
        trace.remove()
    info = trace.breakdown()
    return {layer: info[layer]["self_s"] for layer in LAYERS}


def test_injected_busy_wait_is_named_by_the_breakdown():
    w = WORKLOADS["mcv-block"](5, TINY)
    base = _self_times(w)
    original = Network.__dict__["broadcast_round"]

    def slow(*args, **kwargs):
        until = perf_counter() + 200e-6
        while perf_counter() < until:
            pass
        return original(*args, **kwargs)

    Network.broadcast_round = slow
    try:
        slowed = _self_times(w)
    finally:
        Network.broadcast_round = original
    growth = {layer: slowed[layer] - base[layer] for layer in LAYERS}
    assert max(growth, key=growth.get) == "net"
    # Every voting read and write runs at least one broadcast round.
    assert growth["net"] > 0.5 * 200e-6 * len(w.delays)
