import numpy as np
import pytest

from fanbeam.gridfile import DTYPE_F64LE, MAGIC, read_grid, write_grid


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.standard_normal((17, 33))
    path = tmp_path / "grid.bin"
    write_grid(path, data, (0.0, 3.25), (-1.0, 1.0))
    back = read_grid(path)
    assert back.data.dtype == np.float64
    np.testing.assert_array_equal(back.data, data)
    assert back.axis0 == (0.0, 3.25)
    assert back.axis1 == (-1.0, 1.0)
    # write/read/write produces identical bytes
    path2 = tmp_path / "grid2.bin"
    write_grid(path2, back.data, back.axis0, back.axis1)
    assert path.read_bytes() == path2.read_bytes()


def test_header_layout(tmp_path):
    path = tmp_path / "grid.bin"
    write_grid(path, np.zeros((2, 3)), (0.0, 1.0), (2.0, 3.0))
    raw = path.read_bytes()
    assert raw[:8] == MAGIC
    assert raw[8] == DTYPE_F64LE
    assert int.from_bytes(raw[9:13], "little") == 2
    assert int.from_bytes(raw[13:17], "little") == 3
    assert len(raw) == 49 + 2 * 3 * 8


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    write_grid(path, np.zeros((2, 2)), (0.0, 1.0), (0.0, 1.0))
    raw = bytearray(path.read_bytes())
    raw[:8] = b"NOTAGRID"
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="bad magic"):
        read_grid(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "short.bin"
    write_grid(path, np.zeros((4, 4)), (0.0, 1.0), (0.0, 1.0))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="payload length"):
        read_grid(path)


def test_non_2d_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_grid(tmp_path / "x.bin", np.zeros(5), (0, 1), (0, 1))


def test_oversized_header_rejected(tmp_path):
    # a header claiming 4e9 x 4e9 is refused from the file size, before any read
    path = tmp_path / "huge.bin"
    write_grid(path, np.zeros((2, 2)), (0.0, 1.0), (0.0, 1.0))
    raw = bytearray(path.read_bytes())
    raw[9:17] = (4_000_000_000).to_bytes(4, "little") * 2
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="payload length"):
        read_grid(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_payload_rejected(tmp_path, bad):
    path = tmp_path / "nan.bin"
    data = np.zeros((3, 4))
    data[1, 2] = bad
    write_grid(path, data, (0.0, 1.0), (0.0, 1.0))
    with pytest.raises(ValueError, match="non-finite"):
        read_grid(path)


@pytest.mark.parametrize("axis", range(4))
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_header_axis_rejected(tmp_path, axis, bad):
    path = tmp_path / "axis.bin"
    axes = [0.0, 1.0, -1.0, 1.0]
    axes[axis] = bad
    write_grid(path, np.zeros((3, 4)), tuple(axes[:2]), tuple(axes[2:]))
    with pytest.raises(ValueError, match="header axes"):
        read_grid(path)


def test_failed_write_keeps_existing_file(tmp_path, monkeypatch):
    from fanbeam import gridfile

    path = tmp_path / "grid.bin"
    write_grid(path, np.ones((4, 4)), (0.0, 1.0), (0.0, 1.0))
    before = path.read_bytes()

    class FullDisk:
        """Writes the header, then half the payload, then fails."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, chunk):
            if len(chunk) > gridfile._HEADER.size:
                self.fh.write(chunk[: len(chunk) // 2])
                raise OSError(28, "No space left on device")
            return self.fh.write(chunk)

    monkeypatch.setattr(gridfile, "open", lambda *a, **k: FullDisk(open(*a, **k)), raising=False)
    with pytest.raises(OSError, match="No space"):
        write_grid(path, np.zeros((8, 8)), (0.0, 1.0), (0.0, 1.0))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["grid.bin"]
