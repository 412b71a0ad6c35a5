"""Free-block bitmap behaviour."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.device import LocalBlockDevice
from repro.errors import DeviceUnavailableError, FSFormatError, NoSpaceFSError
from repro.fs import SuperBlock
from repro.fs.bitmap import BlockBitmap


def make_bitmap(num_blocks=64, block_size=512):
    device = LocalBlockDevice(num_blocks=num_blocks, block_size=block_size)
    sb = SuperBlock.compute(num_blocks, block_size, num_inodes=8)
    bitmap = BlockBitmap(device, sb)
    for i in range(sb.data_start):
        bitmap.mark_allocated(i)
    return bitmap, sb, device


def test_allocation_starts_at_data_start():
    bitmap, sb, _ = make_bitmap()
    assert bitmap.allocate() == sb.data_start
    assert bitmap.allocate() == sb.data_start + 1


def test_free_then_reallocate_lowest_first():
    bitmap, sb, _ = make_bitmap()
    blocks = [bitmap.allocate() for _ in range(3)]
    bitmap.free(blocks[0])
    assert bitmap.allocate() == blocks[0]


def test_exhaustion_raises():
    bitmap, sb, _ = make_bitmap(num_blocks=16)
    for _ in range(sb.data_blocks):
        bitmap.allocate()
    with pytest.raises(NoSpaceFSError):
        bitmap.allocate()


def test_unmarked_metadata_blocks_are_never_allocated():
    device = LocalBlockDevice(num_blocks=64, block_size=512)
    sb = SuperBlock.compute(64, 512, num_inodes=8)
    assert sb.data_start % 8  # metadata shares the cursor's byte
    assert BlockBitmap(device, sb).allocate() == sb.data_start


def test_double_free_rejected():
    bitmap, _sb, _ = make_bitmap()
    block = bitmap.allocate()
    bitmap.free(block)
    with pytest.raises(FSFormatError):
        bitmap.free(block)


def test_freeing_metadata_region_rejected():
    bitmap, _sb, _ = make_bitmap()
    with pytest.raises(FSFormatError):
        bitmap.free(0)


def test_free_count():
    bitmap, sb, _ = make_bitmap()
    total = sb.data_blocks
    assert bitmap.free_count() == total
    bitmap.allocate()
    assert bitmap.free_count() == total - 1


def test_state_persists_through_reload():
    bitmap, sb, device = make_bitmap()
    allocated = bitmap.allocate()
    fresh = BlockBitmap(device, sb)
    fresh.load()
    assert fresh.is_allocated(allocated)
    assert not fresh.is_allocated(allocated + 1)


# -- cursor first fit == bit-by-bit first fit --------------------------------


class FirstFitReference(BlockBitmap):
    """The bit-by-bit first fit the low-water cursor replaced."""

    def allocate(self):
        for index in range(self._sb.data_start, self._sb.num_blocks):
            if not self.is_allocated(index):
                self._set(index, True)
                return index
        raise NoSpaceFSError("no free data blocks")

    def free_count(self):
        return sum(
            1
            for index in range(self._sb.data_start, self._sb.num_blocks)
            if not self.is_allocated(index)
        )


class RecordingDevice(LocalBlockDevice):
    """Logs every write and fails the next one on request."""

    def __init__(self, num_blocks, block_size):
        super().__init__(num_blocks=num_blocks, block_size=block_size)
        self.writes = []
        self.fail_next_write = False

    def write_block(self, index, data):
        self.writes.append((index, bytes(data)))
        if self.fail_next_write:
            self.fail_next_write = False
            raise DeviceUnavailableError("injected write failure")
        super().write_block(index, data)


def _allocated(bitmap, sb):
    return [
        b for b in range(sb.data_start, sb.num_blocks)
        if bitmap.is_allocated(b)
    ]


def _replay(cls, geometry, ops):
    """Run ``ops`` against a ``cls`` bitmap; return what it observed."""
    num_blocks, block_size, num_inodes = geometry
    device = RecordingDevice(num_blocks, block_size)
    sb = SuperBlock.compute(num_blocks, block_size, num_inodes)
    bitmap = cls(device, sb)
    for i in range(sb.data_start):
        bitmap.mark_allocated(i)
    seen = []
    for kind, pick in ops:
        out = None
        try:
            if kind == "allocate":
                out = bitmap.allocate()
            elif kind == "free":
                used = _allocated(bitmap, sb)
                if used:
                    out = used[pick % len(used)]
                    bitmap.free(out)
            elif kind == "load":
                bitmap.load()
            elif kind == "free_elsewhere":
                # A second bitmap over the same device frees a block
                # this one learns of only on its next load().
                other = cls(device, sb)
                other.load()
                used = _allocated(other, sb)
                if used:
                    out = used[pick % len(used)]
                    other.free(out)
            else:
                device.fail_next_write = True
        except (NoSpaceFSError, DeviceUnavailableError) as exc:
            out = type(exc).__name__
        seen.append((kind, out, bitmap.free_count()))
    return seen, device.writes


def _fits(geometry):
    try:
        SuperBlock.compute(*geometry)
    except FSFormatError:
        return False
    return True


# (num_blocks, block_size, num_inodes): data_start takes odd values, and
# at 64 B a bitmap of more than 512 blocks spans two device blocks.
_geometries = st.tuples(
    st.integers(min_value=8, max_value=700),
    st.sampled_from([64, 128]),
    st.integers(min_value=1, max_value=13),
).filter(_fits)

_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["allocate"] * 5
            + ["free"] * 2
            + ["load", "free_elsewhere", "fail_next_write"]
        ),
        st.integers(min_value=0, max_value=2**16),
    ),
    max_size=300,
)


@settings(max_examples=300, deadline=None)
@given(geometry=_geometries, ops=_ops)
def test_cursor_first_fit_matches_bit_by_bit_reference(geometry, ops):
    assert _replay(BlockBitmap, geometry, ops) == _replay(
        FirstFitReference, geometry, ops
    )


@pytest.mark.parametrize("num_blocks, num_inodes", [(37, 3), (64, 8), (70, 1)])
def test_cursor_first_fit_matches_reference_through_exhaustion(
    num_blocks, num_inodes
):
    ops = [("allocate", 0)] * num_blocks + [("free", 3), ("free", 0)]
    ops += [("allocate", 0)] * 3 + [("free", 5), ("load", 0)]
    ops += [("allocate", 0)] * 2
    got = _replay(BlockBitmap, (num_blocks, 64, num_inodes), ops)
    assert got == _replay(FirstFitReference, (num_blocks, 64, num_inodes), ops)
    assert ("allocate", "NoSpaceFSError", 0) in got[0]
