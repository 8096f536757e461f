"""The flat BN254 kernel: tuple-level field laws, Miller-loop shapes, G2 Jacobian."""

import importlib
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CryptoError
from repro.groups.bn254 import bn254_g1, bn254_g2
from repro.groups.bn254.fp import (
    FP2_ONE,
    FP6_ONE,
    FP12_ONE,
    P,
    R,
    Fp2,
    Fp12,
    fp2_batch_inv,
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
    fp12_mul_line,
    fp12_sqr,
    vec_add,
)
from repro.groups.bn254.g2 import BN254G2Element
from repro.groups.bn254.pairing import ATE_LOOP_COUNT, _LOOP_NAF, _final_exp, _miller
from repro.schemes import bls04
from tests import bn254_miller_oracle as oracle

# The package re-exports the function ``pairing`` over its submodule.
_PAIRING = importlib.import_module("repro.groups.bn254.pairing")

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
    @given(st.lists(flat(2), min_size=1, max_size=6))
    def test_batch_inverse_is_elementwise_inverse(self, values):
        if all(any(a) for a in values):
            assert fp2_batch_inv(values) == [fp2_inv(a) for a in values]
        else:
            with pytest.raises(CryptoError):
                fp2_batch_inv(values)

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
    @given(flat(12), flat(2), flat(2))
    def test_sparse_product_is_dense_product(self, f, b, c):
        line = FP2_ONE + (0,) * 4 + b + c + (0, 0)  # 1 + b·w + c·w³ = (1, 0, 0 | b, c, 0)
        assert fp12_mul_line(f, *b, *c) == fp12_mul(f, line)

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

    def test_jacobian_g1_argument(self):
        # P with Z ≠ 1 gives its line scalars (x/y, 1/y) as (XZ/Y, Z³/Y).
        g1, g2 = bn254_g1().generator(), bn254_g2().generator()
        p = (g1**5) * (g1**6)
        assert p.point[2] != 1
        assert _miller([(p, g2)]) == _miller([(g1**11, g2)])
        assert p.point[2] != 1

    def test_infinity_members_are_skipped(self):
        g1, g2 = bn254_g1(), bn254_g2()
        pair = (g1.generator() ** 7, g2.generator() ** 9)
        skipped = [(g1.identity(), g2.generator()), (g1.generator(), g2.identity())]
        padded = [skipped[0], pair, skipped[1]]
        assert _miller(padded) == _miller([pair])
        assert _miller([]) == FP12_ONE


#: G2 points whose lines every example below finds already built.
_WARM = (bn254_g2().generator(), bn254_g2().generator() ** 0xC0FFEE)


@st.composite
def _miller_inputs(draw):
    """1–3 pairs: P a point or the identity; Q fresh (no lines yet), a
    table-warm point, the inverse of one (a new element), or the identity."""
    g1, g2 = bn254_g1(), bn254_g2()
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        p_kind = draw(st.sampled_from(["point", "point", "point", "identity"]))
        q_kind = draw(st.sampled_from(["fresh", "warm", "warm inverse", "identity"]))
        p = g1.generator() ** draw(scalars) if p_kind == "point" else g1.identity()
        if q_kind == "fresh":
            q = g2.generator() ** draw(scalars)
        elif q_kind == "identity":
            q = g2.identity()
        else:
            q = draw(st.sampled_from(_WARM))
            q = q.inverse() if q_kind == "warm inverse" else q
        pairs.append((p, q))
    return pairs


@pytest.fixture
def builds(monkeypatch):
    """The affine G2 points whose lines get built while the test runs."""
    built = []
    original = _PAIRING._build_lines

    def counted(q):
        built.append(q)
        return original(q)

    monkeypatch.setattr(_PAIRING, "_build_lines", counted)
    return built


class TestMillerLines:
    """The loop reads each Q's normalized lines from a table kept on the
    element and steps along the signed digits of 6x + 2; the binary
    per-step loop it replaced (``tests/bn254_miller_oracle.py``) is the
    oracle.  The two Miller values differ by a factor in Fp6* — the lines'
    dropped Fp2 factors and the signed loop's vertical lines — so the
    quotient has no w-part and the final exponentiations agree bit for bit."""

    @staticmethod
    def _assert_equal_up_to_fp6(value, expected):
        quotient = fp12_mul(value, fp12_inv(expected))
        assert quotient[6:] == (0,) * 6 and any(quotient[:6])
        assert _final_exp(value) == _final_exp(expected)

    @settings(max_examples=12, deadline=None)
    @given(_miller_inputs())
    def test_matches_the_per_step_oracle(self, pairs):
        for q in _WARM:
            _miller([(bn254_g1().generator(), q)])
        expected = oracle.miller(pairs)
        cold = _miller(pairs)  # fresh Q build their lines here
        self._assert_equal_up_to_fp6(cold, expected)
        assert _miller(pairs) == cold  # ... and every Q is warm now

    def test_table_shape(self):
        # The loop's digits are the non-adjacent form of 6x + 2 below its
        # leading 1: 65 digits, 21 of them ±1.
        value = 1
        for digit in _LOOP_NAF:
            value = 2 * value + digit
        assert value == ATE_LOOP_COUNT and set(_LOOP_NAF) == {-1, 0, 1}
        assert all(not (a and b) for a, b in zip(_LOOP_NAF, _LOOP_NAF[1:]))
        lines = _PAIRING._build_lines(bn254_g2().generator().affine())
        assert [len(step) for step in lines[:-1]] == [1 + abs(d) for d in _LOOP_NAF]
        assert all(len(line) == 4 for step in lines for line in step)
        assert len(lines) == 66 and sum(len(step) for step in lines) == 88

    def test_an_element_builds_its_lines_once(self, builds):
        g1, q = bn254_g1().generator(), bn254_g2().generator() ** 11
        _PAIRING.pairing_check([(g1, q), (g1.inverse(), q)])
        assert builds == [q.affine()]
        _PAIRING.pairing_check([(g1**3, q)])
        _PAIRING.pairing(g1, q)
        assert builds == [q.affine()] and q._lines is not None
        inverse = q.inverse()  # a new element: its own table
        _PAIRING.pairing_check([(g1, inverse)])
        assert builds == [q.affine(), inverse.affine()]

    @pytest.mark.parametrize(
        "x,y", [(3, 9 * pow(2, -1, P)), (5, 0)], ids=["order three", "vertical tangent"]
    )
    def test_a_degenerate_point_raises_every_time_and_keeps_nothing(self, builds, x, y):
        # Off-curve "points" the constructor does not validate (as in
        # test_bn254_pairing.py::TestDegenerateInputs).
        rogue = BN254G2Element(bn254_g2(), Fp2(x, 0), Fp2(y, 0))
        for _ in range(3):
            with pytest.raises(CryptoError):
                _PAIRING.pairing_check([(bn254_g1().generator(), rogue)])
            assert rogue._lines is None
        assert builds == [rogue.affine()] * 3

    def test_signatures_after_the_first_combine_build_no_tables(self, builds):
        public, keys = bls04.keygen(1, 4)
        scheme = bls04.Bls04SignatureScheme()

        def sign(message, signers):
            shares = [scheme.partial_sign(keys[i], message) for i in signers]
            signature = scheme.combine(public, message, shares)
            scheme.verify(public, message, signature)

        sign(b"first", (0, 1))
        assert public.y.affine() in builds and public.y._lines is not None
        builds.clear()
        for message, signers in ((b"second", (1, 2)), (b"third", (3, 0))):
            sign(message, signers)
        assert builds == []


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
