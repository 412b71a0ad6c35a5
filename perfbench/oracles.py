"""Correctness oracles owned by the benchmark.

The benchmark never trusts the program's own checkers for its verdict on
the block and file-system workloads: every result the program returns is
compared against an independent in-memory model kept here.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple


class OracleError(AssertionError):
    """The program returned a result its model says is impossible."""


class BlockOracle:
    """Read-latest-write for one replicated block device.

    A successful read of a block must return the bytes of the latest
    acknowledged write to it (all zeroes before any), or the bytes of a
    write that *failed* after that acknowledgement: a failed write may
    have reached some replicas, so the group may legally serve it until
    the next acknowledged write supersedes it.
    """

    __slots__ = ("acked", "maybe")

    def __init__(self, num_blocks: int, block_size: int) -> None:
        zero = bytes(block_size)
        self.acked: List[bytes] = [zero] * num_blocks
        #: block -> values of writes that failed after the latest ack.
        self.maybe: Dict[int, List[bytes]] = {}

    def write_ok(self, block: int, value: bytes) -> None:
        self.acked[block] = value
        self.maybe.pop(block, None)

    def write_failed(self, block: int, value: bytes) -> None:
        self.maybe.setdefault(block, []).append(value)

    def check_read(self, block: int, value: bytes) -> None:
        if value != self.acked[block] and value not in self.maybe.get(
            block, ()
        ):
            raise OracleError(
                f"read of block {block} returned bytes that are neither "
                f"the latest acknowledged write nor a later failed write"
            )


class FsModel:
    """The file tree a correct file system must hold.

    ``files`` maps a path to its contents and ``dirs`` holds the
    directories.  A path touched by a failed call becomes *unknown*: the
    call may have been half applied, so the path is not checked until a
    later successful ``create``, ``unlink`` or ``mkdir`` settles it again.
    """

    def __init__(self) -> None:
        self.files: Dict[str, bytes] = {}
        self.dirs: Set[str] = set()
        self.unknown: Set[str] = set()

    # -- updates after a successful call ------------------------------------

    def apply(self, op: Tuple) -> None:
        kind, path = op[0], op[1]
        if kind == "mkdir":
            self.dirs.add(path)
            self.unknown.discard(path)
        elif kind == "create":
            self.files[path] = b""
            self.unknown.discard(path)
        elif kind == "write":
            offset, data = op[2], op[3]
            old = self.files.get(path)
            if old is not None:
                self.files[path] = (
                    old[:offset] + data + old[offset + len(data):]
                )
        elif kind == "unlink":
            self.files.pop(path, None)
            self.unknown.discard(path)
        elif kind == "rename":
            target = op[2]
            if path in self.unknown:
                self.unknown.add(target)
            if path in self.files:
                self.files[target] = self.files.pop(path)
            self.unknown.discard(path)

    @staticmethod
    def _touched(op: Tuple) -> List[str]:
        return [op[1], op[2]] if op[0] == "rename" else [op[1]]

    def forget(self, op: Tuple) -> None:
        """A call failed: every path it touched is no longer known."""
        for path in self._touched(op):
            self.unknown.add(path)
            self.files.pop(path, None)

    def knows(self, op: Tuple) -> bool:
        """Whether the model knows every path ``op`` touches and each
        one's parent, so that the call must succeed."""
        for path in self._touched(op):
            if path in self.unknown or path.rsplit("/", 1)[0] in self.unknown:
                return False
        return True

    # -- checks ---------------------------------------------------------------

    def check_read(self, path: str, data: bytes) -> None:
        if path in self.unknown:
            return
        if self.files.get(path) != data:
            raise OracleError(
                f"read_file({path!r}) returned {len(data)} bytes that "
                f"differ from the last data written"
            )

    def check_size(self, path: str, size: int) -> None:
        if path in self.unknown:
            return
        if len(self.files.get(path, b"")) != size:
            raise OracleError(
                f"stat({path!r}).size is {size}, expected "
                f"{len(self.files.get(path, b''))}"
            )

    def check_tree(self, walked: Iterable[str], read_file) -> None:
        """The walked namespace equals the model outside unknown paths."""
        seen = {p for p in walked if p not in self.unknown}
        expected = (self.dirs | set(self.files)) - self.unknown
        if seen != expected:
            missing = sorted(expected - seen)[:3]
            extra = sorted(seen - expected)[:3]
            raise OracleError(
                f"walk() differs from the model: missing {missing}, "
                f"unexpected {extra}"
            )
        for path, data in self.files.items():
            if path not in self.unknown:
                self.check_read(path, read_file(path))
