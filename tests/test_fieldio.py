import numpy as np
import pytest

from gbulab.fieldio import HEADER_BYTES, FieldFormatError, pack_field, read_fields, write_fields
from gbulab.grid import build_grid
from gbulab.problem import SolutionState, make_spec


@pytest.fixture
def read_back(tmp_path):
    """The records that read_fields finds in a file holding these bytes."""
    def read(data: bytes):
        path = tmp_path / "x.field"
        path.write_bytes(data)
        return read_fields(path)
    return read


def test_header_is_exactly_32_textual_bytes():
    data = pack_field(np.arange(5.0), 0.125)
    header = data[:HEADER_BYTES]
    assert len(header) == 32
    header.decode("ascii")
    assert header.endswith(b"\n")


def test_roundtrip_bit_exact_1d(read_back):
    rng = np.random.default_rng(0)
    u = rng.standard_normal(17)
    t = 0.1 + 0.2  # not exactly representable as a short decimal
    [(u2, t2)] = read_back(pack_field(u, t))
    assert t2 == t
    assert np.array_equal(u2, u)
    assert u2.dtype == np.float64


def test_roundtrip_bit_exact_2d(read_back):
    rng = np.random.default_rng(1)
    u = rng.standard_normal((7, 9))
    [(u2, t2)] = read_back(pack_field(u, 1e-300))
    assert t2 == 1e-300
    assert np.array_equal(u2, u)


def test_payload_is_little_endian_rowmajor():
    u = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    data = pack_field(u, 0.0)
    payload = np.frombuffer(data[HEADER_BYTES:], dtype="<f8")
    assert np.array_equal(payload, [1, 2, 3, 4, 5, 6])


def test_truncated_bytes_rejected(read_back):
    data = pack_field(np.arange(5.0), 0.0)
    with pytest.raises(FieldFormatError):
        read_back(data[:-8])
    with pytest.raises(FieldFormatError):
        read_back(data[:10])
    with pytest.raises(FieldFormatError):
        read_back(data + b"\x00" * 8)


def test_bad_magic_rejected(read_back):
    data = bytearray(pack_field(np.arange(5.0), 0.0))
    data[0:2] = b"XX"
    with pytest.raises(FieldFormatError):
        read_back(bytes(data))


def test_snapshot_restore_identity_on_state(tmp_path):
    # a state written to a field file and read back as a state on its grid
    g = build_grid((0.0, 1.0), 21)
    spec = make_spec(g, p=3.0, q=2.5, profile="sine", amplitude=1.3)
    st = spec.initial_state()
    st.t = 0.7
    write_fields(tmp_path / "x.field", [(st.u, st.t)])
    [(u, t)] = read_fields(tmp_path / "x.field")
    back = SolutionState(g, u, t)
    assert back.t == st.t
    assert np.array_equal(back.u, st.u)


def test_file_roundtrip(tmp_path):
    u = np.linspace(0, 1, 33) ** 2
    path = tmp_path / "x.field"
    write_fields(path, [(u, 0.25)])
    assert path.read_bytes() == pack_field(u, 0.25)  # a one-record file is one record
    [(u2, t2)] = read_fields(path)
    assert t2 == 0.25
    assert np.array_equal(u2, u)


@pytest.mark.parametrize("shape", [(17,), (7, 9)], ids=["1d", "2d"])
def test_multi_record_roundtrip_bit_exact(tmp_path, shape):
    rng = np.random.default_rng(2)
    records = [(rng.standard_normal(shape), t) for t in (0.0, 0.1 + 0.2, 1e-300)]
    path = tmp_path / "x.field"
    write_fields(path, records)
    assert path.read_bytes() == b"".join(pack_field(u, t) for u, t in records)
    back = read_fields(path)
    assert len(back) == len(records)
    for (u, t), (u2, t2) in zip(records, back):
        assert t2 == t
        assert u2.dtype == np.float64 and np.array_equal(u2, u)


def _three_records(tmp_path, edit):
    """The path of a three-record 1D file, its bytes changed by
    edit(data, bytes per record)."""
    size = HEADER_BYTES + 8 * 5
    data = bytearray(b"".join(pack_field(np.arange(5.0) + k, 0.5 * k) for k in range(3)))
    path = tmp_path / "x.field"
    path.write_bytes(bytes(edit(data, size)))
    return path


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d, n: d[:0], "record 0: truncated header"),
        (lambda d, n: d[: 2 * n + 10], "record 2: truncated header"),
        (lambda d, n: d[:-8], "record 2: truncated payload"),
        (lambda d, n: d + b"\x00" * 8, "record 3: truncated header"),
        (lambda d, n: d[: 2 * n] + b"XX" + d[2 * n + 2 :], "record 2: malformed header"),
    ],
    ids=["empty", "truncated-header-of-record-2", "truncated-last-payload",
         "trailing-bytes", "bad-magic-in-record-2"],
)
def test_read_fields_fails_closed_naming_the_record(tmp_path, edit, message):
    with pytest.raises(FieldFormatError, match=message):
        read_fields(_three_records(tmp_path, edit))


def _header_with(data: bytes, start: int, text: bytes) -> bytes:
    return data[:start] + text + data[start + len(text) :]


def test_header_time_digits_must_be_uppercase_hex(read_back):
    data = pack_field(np.arange(5.0), 0.25)
    # int(..., 16) reads "-0...01" as -1, which struct cannot pack as bits
    for digits in (b"-000000000000001", b"3fd0000000000000", b" 3FD000000000000"):
        with pytest.raises(FieldFormatError, match="malformed header"):
            read_back(_header_with(data, 15, digits))


def test_header_1d_axis_1_count_must_be_zero(read_back):
    data = pack_field(np.arange(5.0), 0.0)
    with pytest.raises(FieldFormatError, match="bad axis counts 5, 7 of a 1D field"):
        read_back(_header_with(data, 9, b"000007"))


def test_header_counts_must_be_decimal_digits(read_back):
    data = pack_field(np.arange(5.0), 0.0)
    for count in (b"+00005", b" 00005", b"0_0005"):
        with pytest.raises(FieldFormatError, match="malformed header"):
            read_back(_header_with(data, 3, count))


def test_header_counts_must_be_positive(read_back):
    empty_1d = pack_field(np.arange(5.0), 0.0)[:HEADER_BYTES]
    empty_2d = pack_field(np.ones((2, 3)), 0.0)[:HEADER_BYTES]
    for header in (_header_with(empty_1d, 3, b"000000"), _header_with(empty_2d, 9, b"000000"),
                   _header_with(empty_2d, 3, b"000000")):
        with pytest.raises(FieldFormatError, match="bad axis counts"):
            read_back(header)
    # nor does the writer make a field the reader refuses
    for u in (np.zeros(0), np.zeros((3, 0)), np.zeros((0, 3))):
        with pytest.raises(FieldFormatError, match="do not fit"):
            pack_field(u, 0.0)
