"""Ed25519 group: RFC 8032 conformance, group laws, encodings."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SerializationError
from repro.groups.ed25519 import COFACTOR, L, Ed25519Group, ed25519

scalars = st.integers(min_value=1, max_value=L - 1)


@pytest.fixture(scope="module")
def group() -> Ed25519Group:
    return ed25519()


class TestBasics:
    def test_base_point_matches_rfc8032(self, group):
        assert group.generator().to_bytes().hex() == "58" + "66" * 31

    def test_singleton(self):
        assert ed25519() is ed25519()

    def test_identity(self, group):
        g = group.generator()
        assert (g * group.identity()) == g
        assert group.identity().is_identity()

    def test_generator_has_order_l(self, group):
        assert group.generator()._mul_raw(L).is_identity()
        assert not group.generator()._mul_raw(L - 1).is_identity()

    def test_inverse(self, group):
        g = group.generator()
        assert (g * g.inverse()).is_identity()
        assert g / g == group.identity()

    def test_double_matches_add(self, group):
        g = group.generator()
        assert g._double() == g * g

    def test_exponent_zero(self, group):
        assert (group.generator() ** 0).is_identity()

    def test_negative_exponent(self, group):
        g = group.generator()
        assert g**-1 == g.inverse()
        assert g ** (L - 1) == g.inverse()


class TestAlgebra:
    @settings(max_examples=10)
    @given(scalars, scalars)
    def test_exponent_addition(self, a, b):
        group = ed25519()
        g = group.generator()
        assert (g**a) * (g**b) == g ** ((a + b) % L)

    @settings(max_examples=5)
    @given(scalars, scalars)
    def test_exponent_multiplication(self, a, b):
        group = ed25519()
        g = group.generator()
        assert (g**a) ** b == g ** ((a * b) % L)

    def test_commutativity(self, group):
        g = group.generator()
        p, q = g**123, g**456
        assert p * q == q * p

    def test_associativity(self, group):
        g = group.generator()
        p, q, r = g**3, g**5, g**7
        assert (p * q) * r == p * (q * r)


class TestEncoding:
    def test_round_trip(self, group):
        p = group.generator() ** 987654321
        assert group.element_from_bytes(p.to_bytes()) == p

    def test_identity_round_trip(self, group):
        e = group.identity()
        assert group.element_from_bytes(e.to_bytes()).is_identity()

    def test_wrong_length_rejected(self, group):
        with pytest.raises(SerializationError):
            group.element_from_bytes(b"\x01" * 31)

    def test_not_on_curve_rejected(self, group):
        # y = 2 with sign 0 is not on the curve.
        bad = (2).to_bytes(32, "little")
        with pytest.raises(SerializationError):
            group.element_from_bytes(bad)

    def test_out_of_range_y_rejected(self, group):
        bad = ((1 << 255) - 19).to_bytes(32, "little")  # y = p
        with pytest.raises(SerializationError):
            group.element_from_bytes(bad)

    def test_low_order_point_rejected(self, group):
        # The 8-torsion point (0, -1) encodes to p-1; it is on the curve but
        # outside the prime-order subgroup.
        bad = (2**255 - 19 - 1).to_bytes(32, "little")
        with pytest.raises(SerializationError):
            group.element_from_bytes(bad)

    def test_encoding_is_canonical(self, group):
        p = group.generator() ** 31337
        assert p.to_bytes() == group.element_from_bytes(p.to_bytes()).to_bytes()


class TestHashToElement:
    def test_deterministic(self, group):
        assert group.hash_to_element(b"x") == group.hash_to_element(b"x")

    def test_distinct_inputs(self, group):
        assert group.hash_to_element(b"x") != group.hash_to_element(b"y")

    def test_in_prime_order_subgroup(self, group):
        h = group.hash_to_element(b"subgroup-check")
        assert h._mul_raw(L).is_identity()
        assert not h.is_identity()

    def test_cofactor_cleared(self, group):
        # After clearing the cofactor no 8-torsion component survives.
        h = group.hash_to_element(b"torsion")
        assert not h._mul_raw(COFACTOR * 3).is_identity()


class TestScalars:
    def test_random_scalar_range(self, group):
        for _ in range(20):
            s = group.random_scalar()
            assert 0 < s < L

    def test_scalar_from_bytes_reduces(self, group):
        assert group.scalar_from_bytes(b"\xff" * 64) < L

    def test_multi_exp_matches_naive(self, group):
        g = group.generator()
        bases = [g**2, g**3, g**5]
        exps = [10, 20, 30]
        assert group.multi_exp(bases, exps) == g ** (20 + 60 + 150)
