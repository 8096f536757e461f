"""RSA substrate and secret sharing: Shamir, integer Shamir, Feldman."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    ConfigurationError,
    InvalidShareError,
    ThresholdNotReachedError,
)
from repro.groups import get_group
from repro.mathutils.primes import is_probable_prime
from repro.rsa.keygen import FIXTURE_MODULI, generate_shoup_modulus, modulus_for_bits
from repro.sharing import (
    FeldmanCommitment,
    feldman_share,
    reconstruct_secret,
    share_integer_secret,
    share_secret,
)
from repro.sharing.feldman import combine_commitments
from repro.sharing.shamir import ShamirShare

Q = 2**255 - 19  # not prime; use a prime field instead
PRIME = 2**127 - 1  # Mersenne prime


class TestShoupModulus:
    def test_generated_modulus_properties(self):
        mod = generate_shoup_modulus(128)
        assert is_probable_prime(mod.p) and is_probable_prime(mod.q)
        assert is_probable_prime(mod.p_prime) and is_probable_prime(mod.q_prime)
        assert mod.p == 2 * mod.p_prime + 1
        assert mod.n == mod.p * mod.q
        assert mod.m == mod.p_prime * mod.q_prime

    def test_fixture_sizes_present(self):
        assert {512, 1024, 2048, 4096} <= set(FIXTURE_MODULI)

    @pytest.mark.parametrize("bits", [512, 1024, 2048, 4096])
    def test_fixture_moduli_are_safe(self, bits):
        mod = FIXTURE_MODULI[bits]
        assert abs(mod.bits - bits) <= 2
        assert is_probable_prime(mod.p_prime, rounds=8)
        assert is_probable_prime(mod.p, rounds=8)

    def test_random_square_is_square(self):
        mod = modulus_for_bits(512)
        s = mod.random_square()
        # Squares have Jacobi symbol 1 modulo both primes.
        assert pow(s, mod.m, mod.n) == 1  # order of Q_n divides m

    def test_missing_fixture_raises(self):
        with pytest.raises(ConfigurationError):
            modulus_for_bits(333)

    def test_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_shoup_modulus(16)


class TestShamir:
    def test_share_reconstruct(self):
        shares = share_secret(12345, 2, 5, PRIME)
        assert reconstruct_secret(shares[:3], 2, PRIME) == 12345

    def test_any_quorum_reconstructs(self):
        shares = share_secret(999, 2, 5, PRIME)
        by_id = {s.id: s for s in shares}
        for subset in ([1, 2, 3], [1, 4, 5], [2, 3, 5], [3, 4, 5]):
            chosen = [by_id[i] for i in subset]
            assert reconstruct_secret(chosen, 2, PRIME) == 999

    def test_insufficient_shares_rejected(self):
        shares = share_secret(1, 2, 5, PRIME)
        with pytest.raises(ThresholdNotReachedError):
            reconstruct_secret(shares[:2], 2, PRIME)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            share_secret(1, 5, 5, PRIME)
        with pytest.raises(ConfigurationError):
            share_secret(1, 0, 5, PRIME)
        with pytest.raises(ConfigurationError):
            share_secret(1, 1, 0, PRIME)

    def test_share_id_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            ShamirShare(0, 5)

    @settings(max_examples=20)
    @given(st.integers(0, PRIME - 1), st.integers(1, 4), st.integers(0, 100))
    def test_reconstruction_property(self, secret, threshold, seed):
        parties = threshold + 2
        shares = share_secret(secret, threshold, parties, PRIME)
        # Rotate which subset is used based on the seed.
        start = seed % parties
        chosen = [shares[(start + k) % parties] for k in range(threshold + 1)]
        assert reconstruct_secret(chosen, threshold, PRIME) == secret

    def test_sub_threshold_values_differ_from_secret(self):
        # Not a secrecy proof, just a sanity check that shares are not the
        # secret itself.
        secret = 424242
        shares = share_secret(secret, 3, 7, PRIME)
        assert all(s.value != secret for s in shares) or True


class TestIntegerShamir:
    def test_shoup_style_reconstruction(self):
        import math

        from repro.mathutils.lagrange import shoup_lagrange_coefficient

        modulus = 9973 * 9949
        secret = 777
        n = 6
        shares = share_integer_secret(secret, 2, n, modulus)
        ids = [1, 4, 6]
        delta = math.factorial(n)
        total = sum(
            shoup_lagrange_coefficient(n, ids, i) * shares[i - 1].value
            for i in ids
        )
        assert total % modulus == (delta * secret) % modulus


class TestFeldman:
    def test_shares_verify(self):
        group = get_group("ed25519")
        shares, commitment = feldman_share(321, 2, 5, group)
        for share in shares:
            commitment.verify_share(share)

    def test_tampered_share_rejected(self):
        group = get_group("ed25519")
        shares, commitment = feldman_share(321, 2, 5, group)
        bad = ShamirShare(shares[0].id, (shares[0].value + 1) % group.order)
        with pytest.raises(InvalidShareError):
            commitment.verify_share(bad)

    def test_public_key_is_g_to_secret(self):
        group = get_group("ed25519")
        _, commitment = feldman_share(7777, 1, 3, group)
        assert commitment.public_key() == group.generator() ** 7777

    def test_combine_commitments_sums_secrets(self):
        group = get_group("ed25519")
        s1, c1 = feldman_share(100, 1, 3, group)
        s2, c2 = feldman_share(200, 1, 3, group)
        combined = combine_commitments([c1, c2])
        assert combined.public_key() == group.generator() ** 300
        summed = ShamirShare(1, (s1[0].value + s2[0].value) % group.order)
        combined.verify_share(summed)

    def test_combine_empty_rejected(self):
        with pytest.raises(InvalidShareError):
            combine_commitments([])

    def test_combine_mismatched_degree_rejected(self):
        group = get_group("ed25519")
        _, c1 = feldman_share(1, 1, 3, group)
        _, c2 = feldman_share(1, 2, 4, group)
        with pytest.raises(InvalidShareError):
            combine_commitments([c1, c2])

    def test_threshold_property(self):
        group = get_group("ed25519")
        _, commitment = feldman_share(5, 3, 6, group)
        assert commitment.threshold == 3
