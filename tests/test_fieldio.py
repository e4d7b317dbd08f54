import numpy as np
import pytest

from gbulab import SolutionState, build_grid, make_spec, restore, snapshot
from gbulab.fieldio import (
    HEADER_BYTES,
    FieldFormatError,
    pack_field,
    read_fields,
    unpack_field,
    write_fields,
)


def test_header_is_exactly_32_textual_bytes():
    data = pack_field(np.arange(5.0), 0.125)
    header = data[:HEADER_BYTES]
    assert len(header) == 32
    header.decode("ascii")
    assert header.endswith(b"\n")


def test_roundtrip_bit_exact_1d():
    rng = np.random.default_rng(0)
    u = rng.standard_normal(17)
    t = 0.1 + 0.2  # not exactly representable as a short decimal
    u2, t2 = unpack_field(pack_field(u, t))
    assert t2 == t
    assert np.array_equal(u2, u)
    assert u2.dtype == np.float64


def test_roundtrip_bit_exact_2d():
    rng = np.random.default_rng(1)
    u = rng.standard_normal((7, 9))
    u2, t2 = unpack_field(pack_field(u, 1e-300))
    assert t2 == 1e-300
    assert np.array_equal(u2, u)


def test_payload_is_little_endian_rowmajor():
    u = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    data = pack_field(u, 0.0)
    payload = np.frombuffer(data[HEADER_BYTES:], dtype="<f8")
    assert np.array_equal(payload, [1, 2, 3, 4, 5, 6])


def test_truncated_bytes_rejected():
    data = pack_field(np.arange(5.0), 0.0)
    with pytest.raises(FieldFormatError):
        unpack_field(data[:-8])
    with pytest.raises(FieldFormatError):
        unpack_field(data[:10])
    with pytest.raises(FieldFormatError):
        unpack_field(data + b"\x00" * 8)


def test_bad_magic_rejected():
    data = bytearray(pack_field(np.arange(5.0), 0.0))
    data[0:2] = b"XX"
    with pytest.raises(FieldFormatError):
        unpack_field(bytes(data))


def test_snapshot_restore_identity_on_state():
    g = build_grid((0.0, 1.0), 21)
    spec = make_spec(g, p=3.0, q=2.5, profile="sine", amplitude=1.3)
    st = spec.initial_state()
    st.t = 0.7
    back = restore(snapshot(st), g, spec.boundary_values)
    assert back.t == st.t
    assert np.array_equal(back.u, st.u)


def test_restore_grid_mismatch_rejected():
    g = build_grid((0.0, 1.0), 21)
    other = build_grid((0.0, 1.0), 22)
    st = SolutionState(g, np.zeros(21))
    with pytest.raises(FieldFormatError):
        restore(snapshot(st), other)


def test_restore_checks_boundary_pinning():
    g = build_grid((0.0, 1.0), 21)
    st = SolutionState(g, np.linspace(0, 1, 21))
    wrong_g = np.full(21, 0.5)
    with pytest.raises(FieldFormatError):
        restore(snapshot(st), g, wrong_g)


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


def test_unpack_field_takes_one_record_only():
    data = pack_field(np.arange(5.0), 0.0)
    with pytest.raises(FieldFormatError, match="1 records after the first"):
        unpack_field(data + data)


def _header_with(data: bytes, start: int, text: bytes) -> bytes:
    return data[:start] + text + data[start + len(text) :]


def test_header_time_digits_must_be_uppercase_hex():
    data = pack_field(np.arange(5.0), 0.25)
    # int(..., 16) reads "-0...01" as -1, which struct cannot pack as bits
    for digits in (b"-000000000000001", b"3fd0000000000000", b" 3FD000000000000"):
        with pytest.raises(FieldFormatError, match="malformed header"):
            unpack_field(_header_with(data, 15, digits))


def test_header_1d_axis_1_count_must_be_zero():
    data = pack_field(np.arange(5.0), 0.0)
    with pytest.raises(FieldFormatError, match="bad axis counts 5, 7 of a 1D field"):
        unpack_field(_header_with(data, 9, b"000007"))


def test_header_counts_must_be_decimal_digits():
    data = pack_field(np.arange(5.0), 0.0)
    for count in (b"+00005", b" 00005", b"0_0005"):
        with pytest.raises(FieldFormatError, match="malformed header"):
            unpack_field(_header_with(data, 3, count))


def test_header_counts_must_be_positive():
    empty_1d = pack_field(np.arange(5.0), 0.0)[:HEADER_BYTES]
    empty_2d = pack_field(np.ones((2, 3)), 0.0)[:HEADER_BYTES]
    for header in (_header_with(empty_1d, 3, b"000000"), _header_with(empty_2d, 9, b"000000"),
                   _header_with(empty_2d, 3, b"000000")):
        with pytest.raises(FieldFormatError, match="bad axis counts"):
            unpack_field(header)
    # nor does the writer make a field the reader refuses
    for u in (np.zeros(0), np.zeros((3, 0)), np.zeros((0, 3))):
        with pytest.raises(FieldFormatError, match="do not fit"):
            pack_field(u, 0.0)
