"""The precomputation layer: fixed-base tables, Lagrange cache, batch verify."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DuplicateShareError, InvalidShareError
from repro.groups import (
    clear_precompute_cache,
    fixed_base_table,
    fixed_pow,
    get_group,
    list_groups,
    precompute_stats,
)
from repro.groups.precompute import FixedBaseTable, PrecomputeCache
from repro.mathutils.lagrange import (
    clear_lagrange_cache,
    lagrange_cache_stats,
    lagrange_coefficient,
    lagrange_coefficients_at_zero,
)
from repro.mathutils.modular import batch_inverse, inverse_mod
from repro.schemes import get_scheme


class TestBatchInverse:
    @settings(max_examples=40)
    @given(st.lists(st.integers(1, 10**9), min_size=0, max_size=12))
    def test_matches_individual_inversion(self, values):
        q = 2**252 + 27742317777372353535851937790883648493
        assert batch_inverse(values, q) == [inverse_mod(v, q) for v in values]

    def test_zero_is_rejected(self):
        from repro.errors import CryptoError

        with pytest.raises(CryptoError):
            batch_inverse([3, 0, 5], 10007)


class TestLagrangeCache:
    def test_cached_agrees_with_per_point_path(self):
        clear_lagrange_cache()
        rng = random.Random(7)
        moduli = [10007, 2**252 + 27742317777372353535851937790883648493]
        for modulus in moduli:
            for _ in range(25):
                xs = rng.sample(range(1, 64), rng.randint(1, 9))
                cached = lagrange_coefficients_at_zero(xs, modulus)
                plain = {i: lagrange_coefficient(xs, i, 0, modulus) for i in xs}
                assert dict(cached) == plain

    def test_hit_counting_and_order_independence(self):
        clear_lagrange_cache()
        first = lagrange_coefficients_at_zero([3, 1, 2], 10007)
        second = lagrange_coefficients_at_zero([2, 3, 1], 10007)
        assert dict(first) == dict(second)
        stats = lagrange_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1 and stats["size"] == 1

    def test_returned_mapping_is_read_only(self):
        coefficients = lagrange_coefficients_at_zero([1, 2, 3], 10007)
        with pytest.raises(TypeError):
            coefficients[1] = 0  # type: ignore[index]

    def test_duplicates_still_rejected(self):
        with pytest.raises(DuplicateShareError):
            lagrange_coefficients_at_zero([1, 1, 2], 10007)

    def test_interpolation_still_recovers_secret(self):
        clear_lagrange_cache()
        q = 2**252 + 27742317777372353535851937790883648493
        secret, slope = 123456789, 987654321
        points = {i: (secret + slope * i) % q for i in (2, 5, 9)}
        lam = lagrange_coefficients_at_zero(list(points), q)
        assert sum(points[i] * lam[i] for i in points) % q == secret


class TestFixedBaseTable:
    @pytest.mark.parametrize("name", sorted(list_groups()))
    def test_matches_plain_pow_all_groups(self, name):
        group = get_group(name)
        base = group.generator()
        table = FixedBaseTable(base)
        rng = random.Random(name)
        for scalar in [0, 1, 2, group.order - 1, -5] + [
            rng.randrange(group.order) for _ in range(6)
        ]:
            assert table.pow(scalar) == base**scalar

    def test_non_generator_base(self):
        group = get_group("ed25519")
        base = group.generator() ** 31337
        table = FixedBaseTable(base)
        scalar = group.random_scalar()
        assert table.pow(scalar) == base**scalar

    def test_first_use_builds_the_table_and_the_second_hits(self):
        cache = PrecomputeCache()
        group = get_group("ed25519")
        base = group.generator() ** 271828
        assert cache.pow(base, 42) == base**42
        assert cache.stats()["tables_built"] == 1 and cache.stats()["hits"] == 0
        assert cache.pow(base, 43) == base**43
        stats = cache.stats()
        assert stats["tables_built"] == 1 and stats["hits"] == 1
        assert stats["tables"] == 1

    def test_table_cache_eviction(self):
        cache = PrecomputeCache(table_capacity=2)
        group = get_group("ed25519")
        for k in range(2, 6):
            cache.pow(group.generator() ** k, 7)
        stats = cache.stats()
        assert stats["tables"] == 2
        assert stats["evictions"] == 2

    def test_shared_cache_stats_shape(self):
        clear_precompute_cache()
        group = get_group("ed25519")
        fixed_base_table(group.generator())
        fixed_pow(group.generator(), 12345)
        stats = precompute_stats()
        assert stats["tables_built"] >= 1 and stats["hits"] >= 1
        assert set(stats) == {"hits", "tables_built", "evictions", "tables", "capacity"}


_ED25519 = get_group("ed25519")
_ED_BASES = {
    "generator": _ED25519.generator(),
    "other base": _ED25519.hash_to_element(b"flat table base"),
}
_ED_TABLES = {name: FixedBaseTable(base) for name, base in _ED_BASES.items()}
_L = _ED25519.order


class TestEd25519FlatTable:
    """Ed25519 rows hold the flat kernel's cached addends, not elements, and
    ``pow`` sums them on the kernel: the same element as ``__pow__``."""

    @pytest.mark.parametrize("name", sorted(_ED_BASES))
    @pytest.mark.parametrize(
        "scalar", [0, 1, _L - 1, _L, _L + 1, -1, 2**256 - 1], ids=str
    )
    def test_edge_scalars(self, name, scalar):
        result = _ED_TABLES[name].pow(scalar)
        expected = _ED_BASES[name] ** scalar
        assert result == expected
        assert result.to_bytes() == expected.to_bytes()

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(sorted(_ED_BASES)),
        st.integers(min_value=-(2**300), max_value=2**300),
    )
    def test_random_scalars(self, name, scalar):
        assert _ED_TABLES[name].pow(scalar) == _ED_BASES[name] ** scalar

    def test_rows_hold_addends_only(self):
        for table in _ED_TABLES.values():
            for row in table._rows:
                assert len(row) == 16
                for entry in row:
                    assert type(entry) is tuple and len(entry) == 4
                    assert all(type(value) is int for value in entry)


class TestBatchVerification:
    def test_bls04_batch_identifies_culprits(self):
        from repro.schemes import bls04

        public, shares = bls04.keygen(1, 4)
        scheme = get_scheme("bls04")
        message = b"batch-bls"
        sig_shares = [scheme.partial_sign(share, message) for share in shares[:3]]
        scheme.verify_share_batch(public, message, sig_shares)
        forged = bls04.Bls04SignatureShare(
            sig_shares[2].id, sig_shares[0].sigma
        )
        sig_shares[2] = forged
        with pytest.raises(InvalidShareError) as excinfo:
            scheme.verify_share_batch(public, message, sig_shares, identify=True)
        assert str(forged.id) in str(excinfo.value)


class TestSchemesStillAgreeUnderCache:
    """End-to-end spot check: cached hot paths change nothing observable."""

    @settings(max_examples=10, deadline=None)
    @given(st.binary(max_size=64), st.binary(max_size=16))
    def test_sg02_roundtrip(self, plaintext, label):
        from repro.schemes import sg02

        public, shares = sg02.keygen(1, 3)
        scheme = get_scheme("sg02")
        ct = scheme.encrypt(public, plaintext, label)
        dec = [scheme.create_decryption_share(s, ct) for s in shares[:2]]
        assert scheme.combine(public, ct, dec) == plaintext

    def test_cks05_coin_deterministic_across_quorums(self):
        from repro.schemes import cks05

        public, shares = cks05.keygen(2, 5)
        scheme = get_scheme("cks05")
        name = b"round-42"
        coin_shares = {s.id: scheme.create_coin_share(s, name) for s in shares}
        quorum_a = [coin_shares[i] for i in (1, 2, 3)]
        quorum_b = [coin_shares[i] for i in (2, 4, 5)]
        assert scheme.combine(public, name, quorum_a) == scheme.combine(
            public, name, quorum_b
        )


class TestPerRequestBasesStayOffTheCache:
    """Fresh requests build no tables: only generators, public keys and
    verification keys reach ``fixed_pow``.  ``fixed_pow`` builds a table for
    any base on its first use, so a hash point or a ciphertext component
    that reached it would build one in every request."""

    @staticmethod
    def _settled(request, fresh: int) -> None:
        clear_precompute_cache()
        # The long-lived bases get their tables on first use.
        request(b"warm-up")
        before = precompute_stats()
        for index in range(fresh):
            request(b"fresh %d" % index)
        after = precompute_stats()
        for key in ("tables_built", "tables"):
            assert after[key] == before[key], key
        assert after["hits"] > before["hits"]

    def test_fresh_cks05_coins(self):
        from repro.schemes import cks05

        public, shares = cks05.keygen(1, 4)
        scheme = get_scheme("cks05")

        def flip(name: bytes) -> None:
            own = scheme.create_coin_share(shares[0], name)
            peer = scheme.create_coin_share(shares[1], name)
            scheme.verify_coin_share(public, name, peer)
            assert len(scheme.combine(public, name, [own, peer])) == 32

        self._settled(flip, 50)

    @pytest.mark.parametrize("group_name", ["ed25519", "bn254g1"])
    def test_fresh_sg02_decryptions(self, group_name):
        from repro.schemes import sg02

        public, shares = sg02.keygen(1, 4, group_name)
        scheme = get_scheme("sg02")

        def decrypt(plaintext: bytes) -> None:
            ct = scheme.encrypt(public, plaintext, b"label")
            own = scheme.create_decryption_share(shares[0], ct)
            peer = scheme.create_decryption_share(shares[1], ct)
            scheme.verify_decryption_share(public, ct, peer)
            assert scheme.combine(public, ct, [own, peer]) == plaintext

        self._settled(decrypt, 20)
