"""Tests for the bit-level advice codecs."""

from typing import Iterable, List, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.advice.bits import BitReader, BitWriter, Bits, gamma_cost
from repro.errors import AdviceError


class TestBits:
    def test_construction_and_length(self):
        b = Bits([1, 0, 1])
        assert len(b) == 3
        assert list(b) == [1, 0, 1]
        assert b[0] == 1

    def test_invalid_bit_values(self):
        with pytest.raises(AdviceError):
            Bits([2])

    @pytest.mark.parametrize("value", [1.5, 0.5, "1", "0", None])
    def test_non_bits_are_rejected_not_truncated(self, value):
        with pytest.raises(AdviceError):
            Bits([value])

    def test_bool_and_float_bits_render_as_digits(self):
        assert Bits([True, 1.0, False, 0.0]) == Bits([1, 1, 0, 0])
        assert Bits([True, 0.0]).to01() == "10"
        assert BitWriter().write_bit(True).getvalue().to01() == "1"
        assert BitWriter().write_bit(1.0).write_bit(False).getvalue().to01() == "10"

    def test_equality_and_hash(self):
        assert Bits([1, 0]) == Bits([1, 0])
        assert Bits([1]) != Bits([0])
        assert hash(Bits([1, 0])) == hash(Bits([1, 0]))

    def test_concatenation(self):
        assert Bits([1]) + Bits([0, 1]) == Bits([1, 0, 1])
        with pytest.raises(AdviceError):
            Bits() + [1, 0]  # type: ignore[operator]

    def test_to01_roundtrip(self):
        b = Bits([1, 1, 0, 1])
        assert b.to01() == "1101"
        assert Bits.from01("1101") == b

    def test_empty(self):
        assert len(Bits()) == 0
        assert Bits().to01() == ""


class TestWriterPrimitives:
    def test_write_bit(self):
        w = BitWriter().write_bit(1).write_bit(0)
        assert w.getvalue() == Bits([1, 0])
        with pytest.raises(AdviceError):
            BitWriter().write_bit(7)

    def test_write_uint(self):
        w = BitWriter().write_uint(5, 4)
        assert w.getvalue().to01() == "0101"

    def test_write_uint_overflow(self):
        with pytest.raises(AdviceError):
            BitWriter().write_uint(8, 3)
        with pytest.raises(AdviceError):
            BitWriter().write_uint(-1, 3)

    def test_write_uint_zero_width(self):
        assert len(BitWriter().write_uint(0, 0)) == 0

    def test_unary(self):
        assert BitWriter().write_unary(3).getvalue().to01() == "0001"
        assert BitWriter().write_unary(0).getvalue().to01() == "1"
        with pytest.raises(AdviceError):
            BitWriter().write_unary(-1)

    def test_gamma_small_values(self):
        assert BitWriter().write_gamma(1).getvalue().to01() == "1"
        assert BitWriter().write_gamma(2).getvalue().to01() == "010"
        assert BitWriter().write_gamma(5).getvalue().to01() == "00101"
        with pytest.raises(AdviceError):
            BitWriter().write_gamma(0)

    def test_gamma_cost(self):
        assert gamma_cost(1) == 1
        assert gamma_cost(2) == 3
        assert gamma_cost(1024) == 21
        for v in (1, 3, 9, 100, 5000):
            assert len(BitWriter().write_gamma(v)) == gamma_cost(v)
        with pytest.raises(AdviceError):
            gamma_cost(0)


class TestReaderPrimitives:
    def test_underflow(self):
        r = BitReader(Bits([1]))
        r.read_bit()
        with pytest.raises(AdviceError):
            r.read_bit()

    def test_remaining(self):
        r = BitReader(Bits([1, 0, 1]))
        assert r.remaining == 3
        r.read_bit()
        assert r.remaining == 2

    def test_read_uint(self):
        r = BitReader(Bits.from01("0101"))
        assert r.read_uint(4) == 5

    def test_read_uint_negative_width_raises_without_moving(self):
        r = BitReader(Bits.from01("1011"))
        r.read_bit()
        r.read_bit()
        with pytest.raises(AdviceError):
            r.read_uint(-1)
        assert r.remaining == 2
        assert r.read_uint(2) == 3


@given(values=st.lists(st.integers(0, 2**20), max_size=30))
@settings(max_examples=60)
def test_gamma0_roundtrip(values):
    w = BitWriter()
    for v in values:
        w.write_gamma0(v)
    r = BitReader(w.getvalue())
    assert [r.read_gamma0() for _ in values] == values
    assert r.remaining == 0


@given(
    values=st.lists(st.integers(0, 255), max_size=20),
    width=st.just(8),
)
@settings(max_examples=40)
def test_uint_list_roundtrip(values, width):
    bits = BitWriter().write_uint_list(values, width).getvalue()
    assert BitReader(bits).read_uint_list(width) == values


@given(values=st.lists(st.integers(0, 10**6), max_size=15))
@settings(max_examples=40)
def test_gamma_list_roundtrip(values):
    bits = BitWriter().write_gamma_list(values).getvalue()
    assert BitReader(bits).read_gamma_list() == values


@given(
    payload=st.lists(
        st.tuples(st.sampled_from(["bit", "uint", "gamma"]), st.integers(0, 1000)),
        max_size=25,
    )
)
@settings(max_examples=60)
def test_mixed_stream_roundtrip(payload):
    """Interleaved heterogeneous fields decode in order."""
    w = BitWriter()
    for kind, v in payload:
        if kind == "bit":
            w.write_bit(v & 1)
        elif kind == "uint":
            w.write_uint(v, 10)
        else:
            w.write_gamma0(v)
    r = BitReader(w.getvalue())
    for kind, v in payload:
        if kind == "bit":
            assert r.read_bit() == (v & 1)
        elif kind == "uint":
            assert r.read_uint(10) == v
        else:
            assert r.read_gamma0() == v
    assert r.remaining == 0


def test_write_bits_embedding():
    inner = BitWriter().write_gamma(7).getvalue()
    outer = BitWriter().write_bit(1).write_bits(inner).getvalue()
    r = BitReader(outer)
    assert r.read_bit() == 1
    assert r.read_gamma() == 7


# ----------------------------------------------------------------------
# Reference codec: the tuple-of-0/1 implementation the int-backed one
# replaced, kept verbatim (bar names) as the oracle for the
# differential test below.
# ----------------------------------------------------------------------
class RefBits:
    __slots__ = ("_bits",)

    def __init__(self, bits: Iterable[int] = ()):
        b = tuple(int(x) for x in bits)
        if any(x not in (0, 1) for x in b):
            raise AdviceError("bits must be 0 or 1")
        self._bits = b

    def __len__(self) -> int:
        return len(self._bits)

    def __iter__(self):
        return iter(self._bits)

    def __getitem__(self, i):
        return self._bits[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, RefBits):
            return self._bits == other._bits
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._bits)

    def __add__(self, other: "RefBits") -> "RefBits":
        if not isinstance(other, RefBits):
            raise AdviceError("can only concatenate Bits with Bits")
        new = RefBits.__new__(RefBits)
        new._bits = self._bits + other._bits
        return new

    def to01(self) -> str:
        return "".join(str(b) for b in self._bits)


class RefBitWriter:
    def __init__(self) -> None:
        self._bits: List[int] = []

    def write_bit(self, b: int) -> "RefBitWriter":
        if b not in (0, 1):
            raise AdviceError(f"bit must be 0 or 1, got {b!r}")
        self._bits.append(b)
        return self

    def write_uint(self, value: int, width: int) -> "RefBitWriter":
        if value < 0:
            raise AdviceError("write_uint requires a nonnegative value")
        if width < 0:
            raise AdviceError("width must be nonnegative")
        if value >= (1 << width):
            raise AdviceError(f"value {value} does not fit in {width} bits")
        for i in reversed(range(width)):
            self._bits.append((value >> i) & 1)
        return self

    def write_unary(self, value: int) -> "RefBitWriter":
        if value < 0:
            raise AdviceError("unary encodes nonnegative values")
        self._bits.extend([0] * value)
        self._bits.append(1)
        return self

    def write_gamma(self, value: int) -> "RefBitWriter":
        if value < 1:
            raise AdviceError("Elias gamma encodes values >= 1")
        width = value.bit_length() - 1
        self.write_unary(width)
        if width:
            self.write_uint(value - (1 << width), width)
        return self

    def write_gamma0(self, value: int) -> "RefBitWriter":
        return self.write_gamma(value + 1)

    def write_opt_gamma(self, value) -> "RefBitWriter":
        if value is None:
            return self.write_bit(0)
        return self.write_bit(1).write_gamma(value)

    def write_uint_list(self, values: Sequence[int], width: int) -> "RefBitWriter":
        self.write_gamma0(len(values))
        for v in values:
            self.write_uint(v, width)
        return self

    def write_gamma_list(self, values: Sequence[int]) -> "RefBitWriter":
        self.write_gamma0(len(values))
        for v in values:
            self.write_gamma0(v)
        return self

    def write_bits(self, bits: RefBits) -> "RefBitWriter":
        self._bits.extend(bits)
        return self

    def getvalue(self) -> RefBits:
        out = RefBits.__new__(RefBits)
        out._bits = tuple(self._bits)
        return out

    def __len__(self) -> int:
        return len(self._bits)


class RefBitReader:
    def __init__(self, bits: RefBits):
        self._bits = tuple(bits)
        self._pos = 0

    @property
    def remaining(self) -> int:
        return len(self._bits) - self._pos

    def _take(self, k: int) -> Tuple[int, ...]:
        if self._pos + k > len(self._bits):
            raise AdviceError(
                f"advice underflow: needed {k} bits, have {self.remaining}"
            )
        out = self._bits[self._pos: self._pos + k]
        self._pos += k
        return out

    def read_bit(self) -> int:
        return self._take(1)[0]

    def read_uint(self, width: int) -> int:
        value = 0
        for b in self._take(width):
            value = (value << 1) | b
        return value

    def read_unary(self) -> int:
        count = 0
        while True:
            if self.read_bit() == 1:
                return count
            count += 1

    def read_gamma(self) -> int:
        width = self.read_unary()
        if width == 0:
            return 1
        return (1 << width) + self.read_uint(width)

    def read_gamma0(self) -> int:
        return self.read_gamma() - 1

    def read_opt_gamma(self):
        return self.read_gamma() if self.read_bit() else None

    def read_uint_list(self, width: int) -> List[int]:
        count = self.read_gamma0()
        return [self.read_uint(width) for _ in range(count)]

    def read_gamma_list(self) -> List[int]:
        count = self.read_gamma0()
        return [self.read_gamma0() for _ in range(count)]


_small = st.integers(0, 300)
_width = st.integers(0, 12)
_chunk = st.lists(st.integers(0, 1), max_size=20)

#: One write primitive and its argument(s); ``concat`` rebuilds the
#: stream as ``getvalue() + Bits(chunk)``, exercising ``+``.
_write_ops = st.one_of(
    st.tuples(st.just("bit"), st.integers(0, 1)),
    st.tuples(st.just("uint"), _width, st.integers(0, 2**12)),
    st.tuples(st.just("unary"), st.integers(0, 40)),
    st.tuples(st.just("gamma"), st.integers(1, 2**40)),
    st.tuples(st.just("gamma0"), st.integers(0, 2**40)),
    st.tuples(st.just("uint_list"), _width, st.lists(_small, max_size=6)),
    st.tuples(st.just("gamma_list"), st.lists(_small, max_size=6)),
    st.tuples(st.just("bits"), _chunk),
    st.tuples(st.just("concat"), _chunk),
)

#: One read primitive; the stream it reads need not match the writes,
#: so over-reads and misparsed fields are exercised too.  List entries
#: are at least one bit wide, so a misparsed count runs out of bits
#: instead of building a huge list of zero-width entries.
_read_ops = st.one_of(
    st.tuples(st.just("read_bit")),
    st.tuples(st.just("read_uint"), st.integers(0, 70)),
    st.tuples(st.just("read_unary")),
    st.tuples(st.just("read_gamma")),
    st.tuples(st.just("read_gamma0")),
    st.tuples(st.just("read_uint_list"), st.integers(1, 6)),
    st.tuples(st.just("read_gamma_list")),
)


def _write(w, op, writer_cls, bits_cls):
    """Apply one write op to writer ``w`` of one implementation; returns
    (the writer, the value the matching read must give)."""
    kind, *args = op
    if kind == "bit":
        w.write_bit(args[0])
        return w, args[0]
    if kind == "uint":
        width, value = args
        value %= 1 << width
        w.write_uint(value, width)
        return w, value
    if kind == "unary":
        w.write_unary(args[0])
    elif kind == "gamma":
        w.write_gamma(args[0])
    elif kind == "gamma0":
        w.write_gamma0(args[0])
    elif kind == "uint_list":
        width, values = args
        values = [v % (1 << width) for v in values]
        w.write_uint_list(values, width)
        return w, values
    elif kind == "gamma_list":
        w.write_gamma_list(args[0])
    elif kind == "bits":
        w.write_bits(bits_cls(args[0]))
    else:
        joined = w.getvalue() + bits_cls(args[0])
        w = writer_cls()
        w.write_bits(joined)
    return w, args[0]


def _read_back(r, op):
    kind, *args = op
    if kind == "bit":
        return r.read_bit()
    if kind == "uint":
        return r.read_uint(args[0])
    if kind in ("unary", "gamma", "gamma0", "gamma_list"):
        return getattr(r, f"read_{kind}")()
    if kind == "uint_list":
        return r.read_uint_list(args[0])
    return [r.read_bit() for _ in args[0]]


def _read_outcomes(reader, ops):
    """(op, value or 'error', remaining) per read op, stopping after
    the first AdviceError."""
    out = []
    for kind, *args in ops:
        try:
            value = getattr(reader, kind)(*args)
        except AdviceError:
            out.append((kind, "error", reader.remaining))
            break
        out.append((kind, value, reader.remaining))
    return out


@given(
    writes=st.lists(_write_ops, max_size=12),
    reads=st.lists(_read_ops, max_size=12),
)
@settings(max_examples=200, deadline=None)
def test_codec_matches_tuple_reference(writes, reads):
    w, w_ref = BitWriter(), RefBitWriter()
    expected = []
    for op in writes:
        w, value = _write(w, op, BitWriter, Bits)
        w_ref, _ = _write(w_ref, op, RefBitWriter, RefBits)
        expected.append((op, value))
        assert len(w) == len(w_ref)
    bits, ref_bits = w.getvalue(), w_ref.getvalue()
    assert bits.to01() == ref_bits.to01()
    assert len(bits) == len(ref_bits)
    assert list(bits) == list(ref_bits)
    # == agrees with hash, and with the rendered bits.
    twin = Bits.from01(ref_bits.to01())
    assert twin == bits and hash(twin) == hash(bits)
    grown = bits + Bits([0])
    assert (grown == bits) is False and grown.to01() == bits.to01() + "0"

    # Reading back what was written gives the written values.
    r, r_ref = BitReader(bits), RefBitReader(ref_bits)
    for op, value in expected:
        got, got_ref = _read_back(r, op), _read_back(r_ref, op)
        assert got == got_ref == value
        assert r.remaining == r_ref.remaining
    assert r.remaining == 0

    # Arbitrary reads (misparses, over-reads) agree step for step and
    # fail at the same position.
    assert _read_outcomes(BitReader(bits), reads) == _read_outcomes(
        RefBitReader(ref_bits), reads
    )


#: One field of an advice stream: its kind and the value written.
_fields = st.one_of(
    st.tuples(st.just("bit"), st.integers(0, 1)),
    st.tuples(
        st.just("uint"),
        st.integers(0, 16).flatmap(
            lambda w: st.tuples(st.just(w), st.integers(0, 2**w - 1))
        ),
    ),
    st.tuples(st.just("unary"), st.integers(0, 40)),
    st.tuples(st.just("gamma"), st.integers(1, 2**40)),
    st.tuples(st.just("gamma0"), st.integers(0, 2**40)),
    st.tuples(st.just("opt_gamma"), st.none() | st.integers(1, 2**20)),
)


def _write_field(w, kind, value):
    if kind == "uint":
        w.write_uint(value[1], value[0])
    else:
        getattr(w, f"write_{kind}")(value)


def _read_fields(reader, fields):
    """Read ``fields`` in order: their values, or ``(index of the
    failing field, its AdviceError message, remaining after it)``."""
    out = []
    for i, (kind, value) in enumerate(fields):
        try:
            if kind == "uint":
                out.append(reader.read_uint(value[0]))
            else:
                out.append(getattr(reader, f"read_{kind}")())
        except AdviceError as exc:
            return (i, str(exc), reader.remaining)
    return out


@given(fields=st.lists(_fields, min_size=1, max_size=10))
@settings(max_examples=200, deadline=None)
def test_field_reads_match_per_bit_reader_on_every_prefix(fields):
    """The one-call field reads return what was written, and on every
    truncation of the stream fail at the same field, with the same
    ``remaining``, as the per-bit reference reader."""
    w, w_ref = BitWriter(), RefBitWriter()
    for kind, value in fields:
        _write_field(w, kind, value)
        _write_field(w_ref, kind, value)
    bits = w.getvalue()
    assert bits.to01() == w_ref.getvalue().to01()
    written = [v[1] if k == "uint" else v for k, v in fields]
    assert _read_fields(BitReader(bits), fields) == written
    text = bits.to01()
    for cut in range(len(text)):
        got = _read_fields(BitReader(Bits.from01(text[:cut])), fields)
        want = _read_fields(RefBitReader(RefBits(map(int, text[:cut]))), fields)
        assert isinstance(got, tuple) and got == want, cut


def test_opt_gamma_layout():
    w = BitWriter().write_opt_gamma(None).write_opt_gamma(5)
    assert w.getvalue().to01() == "0" + "1" + "00101"
    r = BitReader(w.getvalue())
    assert r.read_opt_gamma() is None and r.read_opt_gamma() == 5
    with pytest.raises(AdviceError):
        BitWriter().write_opt_gamma(0)
