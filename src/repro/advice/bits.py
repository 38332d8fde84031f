"""Exact bit-string encoding for oracle advice.

Table 1 bounds advice in *bits per node*, so advice must be a genuine
bit string, not a Python object whose size is hand-waved.  This module
provides:

* :class:`Bits` — an immutable bit string with O(1) length queries;
* :class:`BitWriter` / :class:`BitReader` — streaming codecs with
  fixed-width integers, unary, Elias-gamma, optional (flagged) gamma,
  and length-prefixed list encodings.

Elias gamma is the workhorse: it encodes a positive integer x in
2*floor(log2 x) + 1 bits, self-delimiting, which lets schemes pay
O(log n) bits per port number without knowing n exactly.

A bit string of length k is held as a ``(value, k)`` pair: the first
bit is the most significant of the k-bit big-endian integer ``value``
(leading zeros are implied by the length).  Writers extend it by
shift-or and readers take fields by shift and mask, so a field costs a
few integer operations however many bits it spans.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.errors import AdviceError


class Bits:
    """An immutable sequence of bits, stored as an ``(int, length)`` pair."""

    __slots__ = ("_value", "_len")

    def __init__(self, bits: Iterable[int] = ()):
        b = tuple(bits)
        # Test before converting: int(1.5) or int("1") would pass as a bit.
        if any(x not in (0, 1) for x in b):
            raise AdviceError("bits must be 0 or 1")
        self._value = int("".join("1" if x else "0" for x in b), 2) if b else 0
        self._len = len(b)

    @classmethod
    def _make(cls, value: int, length: int) -> "Bits":
        out = cls.__new__(cls)
        out._value = value
        out._len = length
        return out

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        return map(int, self.to01())

    def __getitem__(self, i):
        return tuple(self)[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, Bits):
            return self._len == other._len and self._value == other._value
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._value, self._len))

    def __add__(self, other: "Bits") -> "Bits":
        if not isinstance(other, Bits):
            raise AdviceError("can only concatenate Bits with Bits")
        return Bits._make(
            (self._value << other._len) | other._value, self._len + other._len
        )

    def to01(self) -> str:
        """Render as a '0'/'1' string (debugging, golden tests)."""
        return format(self._value, f"0{self._len}b") if self._len else ""

    @classmethod
    def from01(cls, s: str) -> "Bits":
        if s.strip("01"):
            raise AdviceError("bits must be 0 or 1")
        return cls._make(int(s, 2) if s else 0, len(s))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.to01()
        if len(s) > 40:
            s = s[:40] + "..."
        return f"Bits({len(self)}b:{s})"


class BitWriter:
    """Append-only bit stream builder."""

    def __init__(self) -> None:
        self._value = 0
        self._len = 0

    # -- primitives --------------------------------------------------------
    def write_bit(self, b: int) -> "BitWriter":
        """Append a single bit (0 or 1)."""
        if b == 1:
            self._value = (self._value << 1) | 1
        elif b == 0:
            self._value <<= 1
        else:
            raise AdviceError(f"bit must be 0 or 1, got {b!r}")
        self._len += 1
        return self

    def write_uint(self, value: int, width: int) -> "BitWriter":
        """Fixed-width big-endian unsigned integer."""
        if value < 0:
            raise AdviceError("write_uint requires a nonnegative value")
        if width < 0:
            raise AdviceError("width must be nonnegative")
        if value >= (1 << width):
            raise AdviceError(
                f"value {value} does not fit in {width} bits"
            )
        self._value = (self._value << width) | value
        self._len += width
        return self

    def write_unary(self, value: int) -> "BitWriter":
        """value zeros followed by a one (encodes value >= 0)."""
        if value < 0:
            raise AdviceError("unary encodes nonnegative values")
        self._value = (self._value << (value + 1)) | 1
        self._len += value + 1
        return self

    def write_gamma(self, value: int) -> "BitWriter":
        """Elias gamma for value >= 1: unary length then binary remainder.

        The code is ``value`` itself, zero-padded to
        ``2*bit_length - 1`` bits: the padding is the unary length and
        the leading one of ``value`` is its terminator."""
        if value < 1:
            raise AdviceError("Elias gamma encodes values >= 1")
        width = 2 * value.bit_length() - 1
        self._value = (self._value << width) | value
        self._len += width
        return self

    def write_gamma0(self, value: int) -> "BitWriter":
        """Gamma shifted to cover value >= 0."""
        return self.write_gamma(value + 1)

    def write_opt_gamma(self, value: Optional[int]) -> "BitWriter":
        """Flag 0 for ``None``, else flag 1 and the gamma code of value."""
        if value is None:
            return self.write_bit(0)
        return self.write_bit(1).write_gamma(value)

    # -- composites --------------------------------------------------------
    def write_uint_list(self, values: Sequence[int], width: int) -> "BitWriter":
        """Gamma-coded count followed by fixed-width entries."""
        self.write_gamma0(len(values))
        for v in values:
            self.write_uint(v, width)
        return self

    def write_gamma_list(self, values: Sequence[int]) -> "BitWriter":
        """Gamma-coded count followed by gamma0-coded entries."""
        self.write_gamma0(len(values))
        for v in values:
            self.write_gamma0(v)
        return self

    def write_bits(self, bits: Bits) -> "BitWriter":
        """Append an existing bit string verbatim."""
        if not isinstance(bits, Bits):
            bits = Bits(bits)
        self._value = (self._value << bits._len) | bits._value
        self._len += bits._len
        return self

    # -- finish --------------------------------------------------------------
    def getvalue(self) -> Bits:
        """Freeze the written stream into an immutable :class:`Bits`."""
        return Bits._make(self._value, self._len)

    def __len__(self) -> int:
        return self._len


class BitReader:
    """Sequential decoder over a :class:`Bits` value."""

    def __init__(self, bits: Bits):
        if not isinstance(bits, Bits):
            bits = Bits(bits)
        self._value = bits._value
        self._len = bits._len
        self._pos = 0

    @property
    def remaining(self) -> int:
        return self._len - self._pos

    # -- primitives --------------------------------------------------------
    def read_bit(self) -> int:
        """Consume and return the next bit."""
        pos = self._pos
        if pos >= self._len:
            raise AdviceError("advice underflow: needed 1 bits, have 0")
        self._pos = pos + 1
        return (self._value >> (self._len - pos - 1)) & 1

    def read_uint(self, width: int) -> int:
        """Consume a fixed-width big-endian unsigned integer."""
        if width < 0:
            raise AdviceError("width must be nonnegative")
        if self._pos + width > self._len:
            raise AdviceError(
                f"advice underflow: needed {width} bits, have {self.remaining}"
            )
        self._pos += width
        return (self._value >> (self._len - self._pos)) & ((1 << width) - 1)

    def read_unary(self) -> int:
        """Consume a unary value (count of zeros before the next one)."""
        left = self._len - self._pos
        rest = self._value & ((1 << left) - 1)
        if not rest:
            # Only zeros remain: consume them, then fail on the missing one.
            self._pos = self._len
            raise AdviceError("advice underflow: needed 1 bits, have 0")
        count = left - rest.bit_length()
        self._pos += count + 1
        return count

    def read_gamma(self) -> int:
        """Consume an Elias-gamma value (>= 1) in one pass.

        A truncated code fails as :meth:`read_unary` or
        :meth:`read_uint` would."""
        length = self._len
        rest = self._value & ((1 << (length - self._pos)) - 1)
        if not rest:
            self._pos = length
            raise AdviceError("advice underflow: needed 1 bits, have 0")
        # ``left`` bits follow the unary terminator (the value's top bit).
        left = rest.bit_length() - 1
        width = length - self._pos - 1 - left
        self._pos = length - left
        if width > left:
            raise AdviceError(
                f"advice underflow: needed {width} bits, have {left}"
            )
        self._pos += width
        return rest >> (left - width)

    def read_opt_gamma(self) -> Optional[int]:
        """Inverse of :meth:`BitWriter.write_opt_gamma`."""
        return self.read_gamma() if self.read_bit() else None

    def read_gamma0(self) -> int:
        """Consume a shifted gamma value (>= 0)."""
        return self.read_gamma() - 1

    # -- composites --------------------------------------------------------
    def read_uint_list(self, width: int) -> List[int]:
        """Inverse of :meth:`BitWriter.write_uint_list`."""
        count = self.read_gamma0()
        return [self.read_uint(width) for _ in range(count)]

    def read_gamma_list(self) -> List[int]:
        """Inverse of :meth:`BitWriter.write_gamma_list`."""
        count = self.read_gamma0()
        return [self.read_gamma0() for _ in range(count)]


def gamma_cost(value: int) -> int:
    """Bit cost of Elias gamma for value >= 1 (2*floor(log2 v) + 1)."""
    if value < 1:
        raise AdviceError("Elias gamma encodes values >= 1")
    return 2 * (value.bit_length() - 1) + 1
