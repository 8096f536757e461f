"""The flat BN254 G1 kernel: its GLV constants, its two formulas, and ``**``,
``multi_exp`` and fixed-base tables against the double-and-add and element
Straus it replaced (``tests/bn254_g1_oracle.py``), byte for byte."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.groups.bn254 import bn254_g1
from repro.groups.bn254 import g1 as kernel
from repro.groups.bn254.fp import P, R
from repro.groups.bn254.g1 import _BASIS, BETA, LAMBDA
from repro.groups.precompute import FixedBaseTable
from tests import bn254_g1_oracle as oracle
from tests.bn254_g1_oracle import OracleG1

GROUP = bn254_g1()
G = GROUP.generator()
HASHED = GROUP.hash_to_element(b"glv")

EDGE_SCALARS = [0, 1, 2, R - 1, LAMBDA, LAMBDA - 1, LAMBDA + 1, R - LAMBDA]
scalars = st.one_of(
    st.sampled_from(EDGE_SCALARS),
    st.integers(min_value=0, max_value=R - 1),
    st.integers(min_value=0, max_value=2**128 - 1),  # verify_share_batch's weights
    st.integers(min_value=R, max_value=2**300),
)
affine_points = st.one_of(
    st.just(G),
    st.binary(min_size=1, max_size=8).map(GROUP.hash_to_element),
)
# A product is Jacobian (Z ≠ 1) until something reads it as affine.
points = st.one_of(
    affine_points,
    st.just(GROUP.identity()),
    st.tuples(affine_points, affine_points).map(lambda ab: ab[0] * ab[1]),
)


def encoding(x: int, y: int) -> bytes:
    return x.to_bytes(32, "big") + y.to_bytes(32, "big")


class TestGlvConstants:
    def test_beta_is_a_nontrivial_cube_root_of_one(self):
        assert pow(BETA, 3, P) == 1 and BETA != 1

    def test_lambda_is_a_nontrivial_cube_root_of_one_mod_r(self):
        assert (LAMBDA * LAMBDA + LAMBDA + 1) % R == 0

    @pytest.mark.parametrize("point", [G, HASHED], ids=["generator", "hashed"])
    def test_phi_is_multiplication_by_lambda(self, point):
        x, y = point.affine()
        assert oracle.pow_bytes(point, LAMBDA) == encoding(BETA * x % P, y)

    def test_basis_spans_the_lattice(self):
        (a1, b1), (a2, b2) = _BASIS
        assert (a1 + b1 * LAMBDA) % R == 0 and (a2 + b2 * LAMBDA) % R == 0
        assert a1 * b2 - a2 * b1 == R  # so it is a basis, not a sublattice
        # The split's rounding error bounds |kᵢ| by half a row sum.
        assert abs(a1) + abs(a2) < 2**128 and abs(b1) + abs(b2) < 2**128

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.sampled_from(EDGE_SCALARS), st.integers(0, R - 1)))
    def test_split(self, k):
        k1, k2 = kernel._split(k)
        assert (k1 + k2 * LAMBDA - k) % R == 0
        assert abs(k1) < 2**128 and abs(k2) < 2**128
        (a1, b1), (a2, b2) = _BASIS  # rounded, not floored, coordinates
        assert 2 * abs(k1) <= abs(a1) + abs(a2) and 2 * abs(k2) <= abs(b1) + abs(b2)


class TestFormulas:
    @settings(max_examples=30, deadline=None)
    @given(points, points)
    def test_mul_double_inverse_match_the_oracle(self, a, b):
        doubled, product = a.double(), a * b  # before anything normalises a
        ref_a, ref_b = oracle.as_oracle(a), oracle.as_oracle(b)
        assert product.to_bytes() == (ref_a * ref_b).to_bytes()
        assert doubled.to_bytes() == ref_a._double().to_bytes()
        assert (a * a.inverse()).is_infinity()

    def test_madd_special_cases(self):
        point = (HASHED**5).point
        affine = point[:2]
        assert kernel._madd(kernel._INFINITY, affine) == (*affine, 1)
        assert kernel._madd(point, affine) == kernel._dbl(point)  # H = 0, P + P
        assert kernel._madd(point, (affine[0], P - affine[1])) == kernel._INFINITY

    def test_batch_affine_skips_infinity(self):
        jacobian = (HASHED * G).point
        assert kernel._batch_affine([jacobian, kernel._INFINITY, G.point]) == [
            (HASHED * G).affine(),
            None,
            (1, 2),
        ]

    @settings(max_examples=10, deadline=None)
    @given(affine_points, st.lists(scalars, min_size=1, max_size=4))
    def test_fixed_base_table_matches_the_oracle(self, base, ks):
        table = FixedBaseTable(base)
        for k in ks:
            assert table.pow(k).to_bytes() == oracle.pow_bytes(base, k)


class TestScalarMultiplication:
    @settings(max_examples=60, deadline=None)
    @given(points, scalars)
    def test_pow_matches_the_oracle(self, base, k):
        result = base**k
        assert result.to_bytes() == oracle.pow_bytes(base, k)
        assert result.point[2] in (0, 1)

    @pytest.mark.parametrize("k", EDGE_SCALARS)
    @pytest.mark.parametrize("base", [G, HASHED], ids=["generator", "hashed"])
    def test_pow_edge_scalars(self, base, k):
        assert (base**k).to_bytes() == oracle.pow_bytes(base, k)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(points, scalars), min_size=1, max_size=4))
    def test_multi_exp_matches_the_oracle(self, terms):
        bases, ks = [b for b, _ in terms], [k for _, k in terms]
        result = GROUP.multi_exp(bases, ks)
        assert result.to_bytes() == oracle.multi_exp_bytes(bases, ks)
        assert result.point[2] in (0, 1)

    @settings(max_examples=10, deadline=None)
    @given(affine_points, scalars)
    def test_a_point_and_its_inverse_cancel(self, base, k):
        bases = [base, base.inverse()]
        result = GROUP.multi_exp(bases, [k, k])
        assert result.is_infinity()
        assert result.to_bytes() == oracle.multi_exp_bytes(bases, [k, k])

    @pytest.mark.parametrize("base", [G, HASHED], ids=["generator", "hashed"])
    def test_equal_bases_take_the_doubling_branch(self, base):
        # Both digits land on bit 0, so the second addition has H = 0.
        result = GROUP.multi_exp([base, base], [1, 1])
        assert result.to_bytes() == oracle.multi_exp_bytes([base, base], [1, 1])
        assert result.to_bytes() == OracleG1(*base.affine(), 1)._double().to_bytes()

    def test_identity_bases(self):
        identity = GROUP.identity()
        assert (identity**5).is_infinity()
        assert GROUP.multi_exp([identity], [5]).is_infinity()
        mixed = GROUP.multi_exp([identity, G], [5, 7])
        assert mixed.to_bytes() == oracle.pow_bytes(G, 7)
