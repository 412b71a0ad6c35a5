"""Free-block accounting via an on-device bitmap."""

from __future__ import annotations

from typing import List

from ..device.interface import BlockDevice
from ..errors import FSFormatError, NoSpaceFSError
from ..types import BlockIndex
from .layout import SuperBlock

__all__ = ["BlockBitmap"]


class BlockBitmap:
    """One bit per device block; set bits mark allocated blocks.

    The bitmap is held in memory (it is tiny) and written through to the
    device on every mutation, so a crash of the *client* never leaves
    allocation state only in RAM.  Reads during :meth:`load` re-sync from
    the device.

    Allocation is first fit (the lowest free data block) and amortised
    O(1): a low-water cursor is kept in memory with the invariant that
    every data block below it is allocated, so :meth:`allocate` scans
    from the cursor, a whole byte at a time, and only :meth:`free` moves
    it back.  The cursor is derived state; it never reaches the device.
    """

    def __init__(self, device: BlockDevice, superblock: SuperBlock) -> None:
        self._device = device
        self._sb = superblock
        self._bits = bytearray(superblock.bitmap_blocks * superblock.block_size)
        #: Every data block below this index is allocated.
        self._cursor = superblock.data_start

    # -- persistence ------------------------------------------------------

    def load(self) -> None:
        """Read the bitmap from the device."""
        chunks: List[bytes] = []
        for i in range(self._sb.bitmap_blocks):
            chunks.append(self._device.read_block(self._sb.bitmap_start + i))
        self._bits = bytearray(b"".join(chunks))
        self._cursor = self._sb.data_start

    def _flush_block_of(self, index: BlockIndex) -> None:
        """Write back the bitmap block containing bit ``index``."""
        bits_per_block = self._sb.block_size * 8
        which = index // bits_per_block
        start = which * self._sb.block_size
        self._device.write_block(
            self._sb.bitmap_start + which,
            bytes(self._bits[start : start + self._sb.block_size]),
        )

    # -- bit operations ------------------------------------------------------

    def is_allocated(self, index: BlockIndex) -> bool:
        return bool(self._bits[index // 8] & (1 << (index % 8)))

    def _set(self, index: BlockIndex, value: bool) -> None:
        if value:
            self._bits[index // 8] |= 1 << (index % 8)
        else:
            self._bits[index // 8] &= ~(1 << (index % 8))
        self._flush_block_of(index)

    def mark_allocated(self, index: BlockIndex) -> None:
        """Mark a block used (format-time metadata reservation)."""
        self._set(index, True)

    # -- allocation -------------------------------------------------------------

    def allocate(self) -> BlockIndex:
        """Claim a free data block, lowest index first."""
        bits = self._bits
        end = self._sb.num_blocks
        index = self._cursor
        while index < end:
            byte = index >> 3
            # Bits below ``index`` in its byte count as taken.
            taken = bits[byte] | ((1 << (index & 7)) - 1)
            if taken != 0xFF:
                # The lowest clear bit of ``taken``.
                index = (byte << 3) + (taken ^ (taken + 1)).bit_length() - 1
                break
            index = (byte + 1) << 3
        if index >= end:
            self._cursor = end
            raise NoSpaceFSError("no free data blocks")
        self._cursor = index + 1
        self._set(index, True)
        return index

    def free(self, index: BlockIndex) -> None:
        """Release a data block."""
        if index < self._sb.data_start or index >= self._sb.num_blocks:
            raise FSFormatError(
                f"block {index} is not a data block "
                f"[{self._sb.data_start}, {self._sb.num_blocks})"
            )
        if not self.is_allocated(index):
            raise FSFormatError(f"double free of block {index}")
        # Lowered before the write-through, which may raise after the
        # bit is already clear in memory.
        self._cursor = min(self._cursor, index)
        self._set(index, False)

    def free_count(self) -> int:
        """Number of unallocated data blocks."""
        start, end = self._sb.data_start, self._sb.num_blocks
        bits = int.from_bytes(self._bits, "little") >> start
        # A popcount; ``int.bit_count`` needs Python 3.10.
        used = bin(bits & ((1 << (end - start)) - 1)).count("1")
        return end - start - used
