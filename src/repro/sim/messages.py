"""Messages and exact bit-size accounting.

The paper distinguishes the LOCAL model (unbounded messages) from the
CONGEST model (O(log n)-bit messages).  To make that distinction
executable, every payload sent through the simulator is *measured* in
bits by :func:`bit_size`; the CONGEST policy (see
:mod:`repro.models.congest`) enforces a cap on that measure.

Size convention
---------------
Payloads are built from plain Python values.  Sizes are charged as:

* ``None`` / ``bool`` — 1 bit;
* ``int`` — ``1 + bit_length`` bits (sign + magnitude; at least 2);
* ``str`` — 8 bits flat.  Strings are used exclusively as message-type
  tags drawn from an O(1)-size per-algorithm alphabet, so a constant
  cost is the honest charge.  (Payload *data* is always numeric.)
* ``tuple`` / ``list`` — sum of elements plus 2 bits of framing per
  element (self-delimiting container encoding);
* ``frozenset`` / ``set`` — as list;
* ``dict`` — keys and values as a list of pairs;
* :class:`bytes` — 8 bits per byte;
* ``float`` — 64 bits;
* any other object with a ``size_bits()`` method — what it reports.

The convention over-counts small payloads slightly and never
under-counts asymptotically, which is the safe direction for verifying
upper bounds on message/bit complexity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, NamedTuple

from repro.errors import SimulationError

#: Int sequences at least this long (fast-wakeup's ID vectors, say)
#: take the vectorized measurement path in :func:`bit_size` (below the
#: threshold the type scan costs more than the plain recursion saves).
_INT_RUN_MIN = 8


def bit_size(payload: Any) -> int:
    """Exact bit cost of a payload under the module's size convention.

    Dispatches on the exact type first (the overwhelmingly common
    case), falling back to the ``isinstance`` ladder for subclasses
    and the rarer container types.  Long homogeneous int sequences,
    such as neighbour-ID vectors, are measured with C-level
    ``sum(map(int.bit_length, ...))`` instead of per-element recursion;
    the result is identical, element by element.
    """
    t = type(payload)
    if t is int:
        return 1 + max(1, payload.bit_length())
    if t is bool or payload is None:
        return 1
    if t is str:
        return 8
    if t is tuple or t is list:
        n = len(payload)
        if n >= _INT_RUN_MIN and all(type(x) is int for x in payload):
            # Per int element: 2 framing + 1 sign + max(1, bit_length);
            # a zero has bit_length 0 but is charged the 1-bit minimum.
            return 3 * n + sum(map(int.bit_length, payload)) + payload.count(0)
        return sum(bit_size(x) + 2 for x in payload)
    return _bit_size_general(payload)


def _bit_size_general(payload: Any) -> int:
    """The full isinstance ladder: subclasses, floats, bytes, sets,
    dicts, and objects with a ``size_bits`` hint."""
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return 1 + max(1, payload.bit_length())
    if isinstance(payload, float):
        return 64
    if isinstance(payload, str):
        return 8
    if isinstance(payload, bytes):
        return 8 * len(payload)
    if isinstance(payload, (tuple, list)):
        return sum(bit_size(x) + 2 for x in payload)
    if isinstance(payload, (set, frozenset)):
        return sum(bit_size(x) + 2 for x in sorted(payload, key=repr))
    if isinstance(payload, dict):
        return sum(
            bit_size(k) + bit_size(v) + 4 for k, v in payload.items()
        )
    size_hint = getattr(payload, "size_bits", None)
    if callable(size_hint):
        return int(size_hint())
    raise SimulationError(
        f"cannot measure payload of type {type(payload).__name__}"
    )


# ----------------------------------------------------------------------
# Memoized measurement (engine hot path)
# ----------------------------------------------------------------------
# Protocols send the same few payload *shapes* over and over (flooding's
# ("wake",) tag, gossip's small tuples), so the engines measure through
# a cache keyed on a structural type signature.  The signature carries
# the exact type at every position alongside the value — (int, 1),
# (bool, True), and (float, 1.0) are distinct keys even though the
# values compare equal and would collide in a plain value-keyed dict.
_BIT_SIZE_CACHE: Dict[Any, int] = {}
_BIT_SIZE_CACHE_MAX = 4096
#: Containers longer than this are never memoized: building their key
#: costs as much as measuring them, and each giant key would pin the
#: payload in the cache.
_MEMO_MAX_LEN = 8


def _structural_key(payload: Any):
    """Hashable (type, value) signature of a payload, or None when the
    payload is not worth (or not safe to) memoize."""
    t = type(payload)
    if t is tuple or t is list:
        if len(payload) > _MEMO_MAX_LEN:
            return None
        parts = []
        for x in payload:
            k = _structural_key(x)
            if k is None:
                return None
            parts.append(k)
        return (t, tuple(parts))
    if t is int or t is bool or t is str or t is float or payload is None:
        return (t, payload)
    return None


def bit_size_cached(payload: Any) -> int:
    """:func:`bit_size` through the structural-signature memo.

    Exact by construction: a cache hit returns the stored
    :func:`bit_size` of a structurally identical payload, and anything
    without a (small, hashable) signature falls back to the exact
    computation.  Scalars skip the cache entirely — measuring them is
    cheaper than keying them.
    """
    t = type(payload)
    if t is int:
        return 1 + max(1, payload.bit_length())
    if t is bool or payload is None:
        return 1
    if t is str:
        return 8
    key = _structural_key(payload)
    if key is None:
        return bit_size(payload)
    bits = _BIT_SIZE_CACHE.get(key)
    if bits is None:
        bits = bit_size(payload)
        if len(_BIT_SIZE_CACHE) < _BIT_SIZE_CACHE_MAX:
            _BIT_SIZE_CACHE[key] = bits
    return bits


class Message(NamedTuple):
    """A message in flight.

    A ``NamedTuple`` rather than a frozen dataclass: the engines build
    one per send on the hot path, and tuple construction is ~2.5x
    cheaper than a frozen-dataclass ``__init__`` while keeping the
    same immutability guarantee (assignment raises ``AttributeError``).

    Attributes
    ----------
    src, dst:
        Topology vertex labels of the endpoints.
    dst_port:
        The port number *at the destination* over which the message
        arrives (1-based, per the paper's port-numbering convention).
    src_port:
        The port number at the source over which it was sent.
    payload:
        Arbitrary measured payload.
    bits:
        Cached :func:`bit_size` of the payload.
    sent_at:
        Simulation time (async) or round number (sync) of the send.
    seq:
        Global send sequence number; used for FIFO tie-breaking and
        deterministic replay.
    """

    src: Hashable
    dst: Hashable
    dst_port: int
    src_port: int
    payload: Any
    bits: int
    sent_at: float
    seq: int


@dataclass(slots=True)
class Send:
    """A send request emitted by a node during a computation step."""

    port: int
    payload: Any
