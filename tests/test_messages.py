"""Tests for message payload size accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.messages import Message, bit_size


def _reference(payload):
    """The module's size convention written out element by element,
    with no fast path: what :func:`bit_size` must charge."""
    if payload is None or isinstance(payload, bool):
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
        return sum(_reference(x) + 2 for x in payload)
    raise TypeError(type(payload).__name__)


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False),
    st.sampled_from(["wake", "token", "x"]),
    st.binary(max_size=4),
)
_PAYLOADS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=12), st.lists(inner, max_size=12).map(tuple)
    ),
    max_leaves=40,
)


class TestBitSize:
    def test_none_and_bool(self):
        assert bit_size(None) == 1
        assert bit_size(True) == 1
        assert bit_size(False) == 1

    def test_int_scaling(self):
        assert bit_size(0) == 2
        assert bit_size(1) == 2
        assert bit_size(255) == 9
        assert bit_size(2**32) == 34

    def test_int_monotone(self):
        sizes = [bit_size(2**i) for i in range(0, 40, 4)]
        assert sizes == sorted(sizes)

    def test_float(self):
        assert bit_size(3.14) == 64

    def test_string_is_constant_tag_cost(self):
        assert bit_size("wake") == 8
        assert bit_size("x") == 8

    def test_bytes(self):
        assert bit_size(b"abc") == 24

    def test_tuple_framing(self):
        # two ints + 2 bits framing each
        assert bit_size((1, 1)) == 2 * (2 + 2)

    def test_nested_containers(self):
        flat = bit_size((1, 2, 3))
        nested = bit_size(((1, 2, 3),))
        assert nested == flat + 2

    def test_list_equals_tuple(self):
        assert bit_size([1, 2]) == bit_size((1, 2))

    def test_set_cost(self):
        assert bit_size({1, 2}) == bit_size([1, 2])

    def test_dict(self):
        assert bit_size({1: 2}) == bit_size(1) + bit_size(2) + 4

    def test_id_list_scales_linearly(self):
        small = bit_size(tuple(range(100, 110)))
        large = bit_size(tuple(range(100, 200)))
        assert large > 5 * small

    def test_unmeasurable_payload(self):
        class Opaque:
            pass

        with pytest.raises(SimulationError):
            bit_size(Opaque())

    def test_size_bits_hook(self):
        class Sized:
            def size_bits(self):
                return 17

        assert bit_size(Sized()) == 17

    @given(payload=_PAYLOADS)
    @settings(max_examples=300, deadline=None)
    def test_matches_per_element_reference(self, payload):
        assert bit_size(payload) == _reference(payload)

    def test_distinguishes_equal_but_differently_typed_values(self):
        # 1 == True == 1.0, but each is charged by its own type, also
        # inside a container.
        assert bit_size((1,)) == 2 + 2
        assert bit_size((True,)) == 2 + 1
        assert bit_size((1.0,)) == 2 + 64
        assert bit_size(("sp-next", 3, 5)) == 3 * 2 + 8 + 3 + 4


class TestMessage:
    def test_frozen(self):
        m = Message(
            src=0, dst=1, dst_port=1, src_port=2, payload=("x",),
            bits=8, sent_at=0.0, seq=0,
        )
        with pytest.raises(AttributeError):
            m.src = 9  # type: ignore[misc]
