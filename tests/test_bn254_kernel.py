"""The flat BN254 kernel: tuple-level field laws, Miller-loop shapes, G2 Jacobian."""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.groups.bn254 import bn254_g1, bn254_g2
from repro.groups.bn254.fp import (
    FP2_ONE,
    FP6_ONE,
    FP12_ONE,
    P,
    R,
    Fp12,
    fp2_inv,
    fp2_mul,
    fp2_sqr,
    fp6_inv,
    fp6_mul,
    fp6_sqr,
    fp12_conj,
    fp12_cyclotomic_sqr,
    fp12_frobenius,
    fp12_inv,
    fp12_mul,
    fp12_mul_sparse,
    fp12_sqr,
    vec_add,
)
from repro.groups.bn254.pairing import _final_exp, _miller

fp_ints = st.integers(min_value=0, max_value=P - 1)
scalars = st.integers(min_value=1, max_value=R - 1)


def flat(n):
    return st.lists(fp_ints, min_size=n, max_size=n).map(tuple)


LEVELS = (
    (flat(2), fp2_mul, fp2_sqr, fp2_inv, FP2_ONE),
    (flat(6), fp6_mul, fp6_sqr, fp6_inv, FP6_ONE),
    (flat(12), fp12_mul, fp12_sqr, fp12_inv, FP12_ONE),
)


class TestRingLaws:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_every_level(self, data):
        for values, mul, sqr, inv, one in LEVELS:
            a, b, c = data.draw(values), data.draw(values), data.draw(values)
            assert mul(a, b) == mul(b, a)
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            assert mul(a, vec_add(b, c)) == vec_add(mul(a, b), mul(a, c))
            assert mul(a, one) == a
            assert sqr(a) == mul(a, a)
            if any(a):
                assert mul(a, inv(a)) == one

    @settings(max_examples=10, deadline=None)
    @given(flat(12))
    def test_outputs_are_reduced(self, a):
        for value in (fp12_mul(a, a), fp12_sqr(a), fp12_frobenius(a), fp12_conj(a)):
            assert all(0 <= c < P for c in value)


class TestFp12Shapes:
    @settings(max_examples=5, deadline=None)
    @given(flat(12))
    def test_frobenius_is_p_power(self, a):
        assert Fp12._wrap(fp12_frobenius(a)) == Fp12._wrap(a) ** P
        assert fp12_frobenius(a, 12) == a

    @settings(max_examples=25, deadline=None)
    @given(flat(12), flat(2), flat(2), flat(2))
    def test_sparse_product_is_dense_product(self, f, a, b, c):
        line = a + (0,) * 4 + b + c + (0, 0)  # a + b·w + c·w³ = (a, 0, 0 | b, c, 0)
        assert fp12_mul_sparse(f, a, b, c) == fp12_mul(f, line)

    @settings(max_examples=10, deadline=None)
    @given(flat(12))
    def test_cyclotomic_square_after_easy_part(self, a):
        if not any(a):
            return
        f = fp12_mul(fp12_conj(a), fp12_inv(a))  # a^(p⁶ − 1)
        f = fp12_mul(fp12_frobenius(f, 2), f)  # … ^(p² + 1)
        assert fp12_mul(f, fp12_conj(f)) == FP12_ONE
        assert fp12_cyclotomic_sqr(f) == fp12_sqr(f)


class TestMillerLoop:
    @settings(max_examples=3, deadline=None)
    @given(st.lists(st.tuples(scalars, scalars), min_size=2, max_size=3))
    def test_shared_loop_is_product_of_single_loops(self, exponents):
        g1, g2 = bn254_g1().generator(), bn254_g2().generator()
        pairs = [(g1**a, g2**b) for a, b in exponents]
        product = FP12_ONE
        for pair in pairs:
            product = fp12_mul(product, _miller([pair]))
        assert _final_exp(_miller(pairs)) == _final_exp(product)

    def test_infinity_members_are_skipped(self):
        g1, g2 = bn254_g1(), bn254_g2()
        pair = (g1.generator() ** 7, g2.generator() ** 9)
        skipped = [(g1.identity(), g2.generator()), (g1.generator(), g2.identity())]
        padded = [skipped[0], pair, skipped[1]]
        assert _miller(padded) == _miller([pair])
        assert _miller([]) == FP12_ONE


class TestG2Jacobian:
    @settings(max_examples=5, deadline=None)
    @given(scalars, scalars)
    def test_group_law_matches_exponent_arithmetic(self, a, b):
        g = bn254_g2().generator()
        assert (g**a) * (g**b) == g ** (a + b)
        assert (g**a).double() == g ** (2 * a)
        assert ((g**a) * (g**a).inverse()).infinity

    def test_pickle_round_trip(self):
        element = bn254_g2().generator() ** 12345  # Jacobian inside
        clone = pickle.loads(pickle.dumps(element))
        assert clone == element and clone.to_bytes() == element.to_bytes()
