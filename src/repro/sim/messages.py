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

from typing import Any, Hashable, NamedTuple

from repro.errors import SimulationError


def bit_size(payload: Any) -> int:
    """Exact bit cost of a payload under the module's size convention.

    Dispatches on the exact type first (the overwhelmingly common
    case), falling back to the ``isinstance`` ladder for subclasses
    and the rarer container types.  A tuple or list is measured in one
    loop that charges its ``int`` and ``str`` elements inline and
    recurses only for the rest (``bool``, ``None``, floats, nested
    containers); the result is the per-element sum.
    """
    t = type(payload)
    if t is int:
        return 1 + max(1, payload.bit_length())
    if t is bool or payload is None:
        return 1
    if t is str:
        return 8
    if t is tuple or t is list:
        bits = 2 * len(payload)  # framing
        for x in payload:
            tx = type(x)
            if tx is int:
                bits += 1 + (x.bit_length() or 1)
            elif tx is str:
                bits += 8
            else:
                bits += bit_size(x)
        return bits
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
