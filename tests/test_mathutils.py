"""Number theory: modular arithmetic, primality, Lagrange interpolation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CryptoError, DuplicateShareError
from repro.mathutils.lagrange import (
    integer_lagrange_numerator_denominator,
    interpolate_at,
    lagrange_coefficient,
    lagrange_coefficients_at_zero,
    shoup_lagrange_coefficient,
)
from repro.mathutils.modular import (
    batch_inverse,
    crt_pair,
    inverse_mod,
    jacobi_symbol,
    modexp,
    multiexp_mod,
    sqrt_mod_prime,
)
from repro.mathutils.primes import (
    is_probable_prime,
    next_prime,
    random_prime,
    random_safe_prime,
)

P256 = 2**256 - 189  # a 256-bit prime


class TestInverseMod:
    def test_basic(self):
        assert (inverse_mod(7, 101) * 7) % 101 == 1

    def test_large(self):
        assert (inverse_mod(123456789, P256) * 123456789) % P256 == 1

    def test_non_invertible(self):
        with pytest.raises(CryptoError):
            inverse_mod(6, 9)

    def test_bad_modulus(self):
        with pytest.raises(CryptoError):
            inverse_mod(1, 0)


class TestModexp:
    def test_negative_exponent_inverts_the_base(self):
        assert modexp(7, -3, P256) == pow(inverse_mod(7, P256), 3, P256)
        assert modexp(7, -3, P256) * pow(7, 3, P256) % P256 == 1

    def test_negative_exponent_of_a_non_invertible_base(self):
        with pytest.raises(CryptoError):
            modexp(6, -1, 9)


class TestMultiexp:
    @staticmethod
    def _naive(pairs, modulus):
        product = 1
        for base, exponent in pairs:
            product = product * pow(base, exponent, modulus) % modulus
        return product

    def test_matches_a_product_of_pows_with_negative_exponents(self):
        rng = random.Random(104)
        for modulus in (P256, 2**1279 - 1):
            pairs = [
                (rng.randrange(2, modulus), rng.randrange(-modulus, modulus))
                for _ in range(5)
            ]
            assert multiexp_mod(pairs, modulus) == self._naive(pairs, modulus)

    def test_exponents_wider_than_the_modulus_are_normalized(self):
        modulus = 2**1279 - 1
        pairs = [(3, -(2**800)), (5, 2**900), (7, 0)]
        assert multiexp_mod(pairs, modulus) == self._naive(pairs, modulus)

    def test_empty_product_is_one(self):
        assert multiexp_mod([], P256) == 1
        assert multiexp_mod([], 1) == 0

    def test_non_invertible_base_with_a_negative_exponent(self):
        with pytest.raises(CryptoError):
            multiexp_mod([(5, 2), (6, -1)], 9)


class TestBatchInverse:
    def test_matches_individual_inverses(self):
        values = [7, 123456789, P256 - 1, 2]
        assert batch_inverse(values, P256) == [
            inverse_mod(v, P256) for v in values
        ]

    def test_repeated_values(self):
        # Montgomery's trick walks a running product; repeats must not
        # confuse the backward unwind.
        values = [7, 7, 13, 7, 13]
        result = batch_inverse(values, P256)
        for value, inverse in zip(values, result):
            assert value * inverse % P256 == 1

    def test_empty(self):
        assert batch_inverse([], P256) == []

    def test_zero_mid_list_poisons_whole_batch(self):
        with pytest.raises(CryptoError):
            batch_inverse([3, 0, 5], P256)

    def test_modulus_sharing_factor_mid_list_poisons_whole_batch(self):
        # 6 shares a factor with 9; the contract is all-or-nothing — no
        # partial results even though 5 and 7 are individually invertible.
        with pytest.raises(CryptoError):
            batch_inverse([5, 6, 7], 9)

    def test_multiple_of_modulus_rejected(self):
        with pytest.raises(CryptoError):
            batch_inverse([2 * P256], P256)


class TestCrt:
    def test_pair(self):
        x = crt_pair(2, 3, 3, 5)
        assert x % 3 == 2 and x % 5 == 3

    def test_non_coprime_moduli_rejected(self):
        with pytest.raises(CryptoError):
            crt_pair(1, 6, 3, 9)  # gcd(6, 9) = 3

    def test_equal_moduli_rejected(self):
        with pytest.raises(CryptoError):
            crt_pair(2, 7, 3, 7)

    @given(st.integers(0, 10**6))
    def test_round_trip(self, x):
        m1, m2 = 10007, 10009
        assert crt_pair(x % m1, m1, x % m2, m2) == x % (m1 * m2)


class TestJacobi:
    def test_known_values(self):
        # (1/9) = 1; (2/15) = 1; (7/15) = -1.
        assert jacobi_symbol(1, 9) == 1
        assert jacobi_symbol(2, 15) == 1
        assert jacobi_symbol(7, 15) == -1

    def test_zero_when_shared_factor(self):
        assert jacobi_symbol(6, 9) == 0

    def test_even_modulus_rejected(self):
        with pytest.raises(CryptoError):
            jacobi_symbol(3, 8)

    def test_non_positive_modulus_rejected(self):
        with pytest.raises(CryptoError):
            jacobi_symbol(3, 0)
        with pytest.raises(CryptoError):
            jacobi_symbol(3, -7)

    def test_n_equals_one_boundary(self):
        # (a/1) = 1 for every a, including 0 and negatives.
        for a in (-5, 0, 1, 42):
            assert jacobi_symbol(a, 1) == 1

    def test_negative_a_reduces_mod_n(self):
        for a in (-1, -2, -14, 3):
            assert jacobi_symbol(a, 15) == jacobi_symbol(a % 15, 15)

    def test_matches_euler_for_prime(self):
        p = 10007
        for a in (2, 3, 5, 9999):
            euler = pow(a, (p - 1) // 2, p)
            expected = 1 if euler == 1 else -1
            assert jacobi_symbol(a, p) == expected


class TestSqrtModPrime:
    @pytest.mark.parametrize("p", [10007, 10009, P256])  # 3 and 1 mod 4
    def test_roots(self, p):
        for x in (2, 3, 1234):
            a = (x * x) % p
            root = sqrt_mod_prime(a, p)
            assert (root * root) % p == a

    def test_non_residue(self):
        p = 10007
        non_residue = next(a for a in range(2, 100) if pow(a, (p - 1) // 2, p) != 1)
        with pytest.raises(CryptoError):
            sqrt_mod_prime(non_residue, p)

    def test_zero(self):
        assert sqrt_mod_prime(0, 10007) == 0


class TestPrimes:
    def test_known_primes(self):
        for p in (2, 3, 5, 104729, P256):
            assert is_probable_prime(p)

    def test_known_composites(self):
        for c in (0, 1, 4, 100, 104730, 561, 41041, 825265):
            # 561/41041/825265 are Carmichael numbers.
            assert not is_probable_prime(c)

    def test_random_prime_bits(self):
        p = random_prime(64)
        assert p.bit_length() == 64
        assert is_probable_prime(p)

    def test_next_prime(self):
        assert next_prime(10) == 11
        assert next_prime(13) == 17
        assert next_prime(0) == 2

    def test_safe_prime(self):
        p, q = random_safe_prime(48)
        assert p == 2 * q + 1
        assert is_probable_prime(p) and is_probable_prime(q)

    def test_tiny_prime_request_rejected(self):
        with pytest.raises(CryptoError):
            random_prime(1)


class TestLagrange:
    def test_reconstruct_constant(self):
        q = 10007
        # f(x) = 42 + 7x over Z_q; shares at 1, 2.
        shares = {1: (42 + 7) % q, 2: (42 + 14) % q}
        coeffs = lagrange_coefficients_at_zero([1, 2], q)
        assert sum(shares[i] * coeffs[i] for i in coeffs) % q == 42

    def test_interpolate_at_point(self):
        q = 10007
        points = {1: 11, 2: 18, 3: 27}  # f(x) = x^2 + 4x + 6
        assert interpolate_at(points, 4, q) == (16 + 16 + 6) % q
        assert interpolate_at(points, 0, q) == 6

    def test_duplicate_points_rejected(self):
        with pytest.raises(DuplicateShareError):
            lagrange_coefficient([1, 1, 2], 1, 0, 10007)

    def test_missing_point_rejected(self):
        with pytest.raises(CryptoError):
            lagrange_coefficient([1, 2], 3, 0, 10007)

    @settings(max_examples=25)
    @given(
        st.lists(st.integers(1, 50), min_size=3, max_size=6, unique=True),
        st.integers(0, 10006),
        st.integers(0, 10006),
        st.integers(0, 10006),
    )
    def test_quadratic_recovery_property(self, xs, a, b, c):
        q = 10007
        poly = lambda x: (a * x * x + b * x + c) % q  # noqa: E731
        xs = xs[:3]
        coeffs = lagrange_coefficients_at_zero(xs, q)
        recovered = sum(poly(x) * coeffs[x] for x in xs) % q
        assert recovered == c

    def test_integer_coefficient_exact(self):
        num, den = integer_lagrange_numerator_denominator([1, 2, 3], 1, 0)
        # λ_1(0) = (0-2)(0-3)/((1-2)(1-3)) = 6/2 = 3.
        assert num / den == 3

    def test_shoup_coefficient_is_integer_and_correct(self):
        import math

        n = 5
        xs = [1, 3, 4]
        delta = math.factorial(n)
        for i in xs:
            num, den = integer_lagrange_numerator_denominator(xs, i, 0)
            scaled = shoup_lagrange_coefficient(n, xs, i)
            assert scaled * den == delta * num  # Δ·λ_i exactly

    def test_shoup_reconstruction(self):
        import math

        # Δ·f(0) = Σ (Δλ_i) f(i) in plain integers for integer polynomials.
        n = 5
        f = lambda x: 17 + 3 * x + 2 * x * x  # noqa: E731
        xs = [2, 4, 5]
        delta = math.factorial(n)
        total = sum(shoup_lagrange_coefficient(n, xs, i) * f(i) for i in xs)
        assert total == delta * f(0)
