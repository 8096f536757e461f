"""Unified dealer and distributed key generation."""

import pytest

from repro.errors import ConfigurationError, ProtocolAbortedError
from repro.groups import get_group
from repro.mathutils.lagrange import lagrange_coefficients_at_zero
from repro.schemes import generate_keys
from repro.schemes.dealing import Deal, deal, finalize
from repro.sharing.shamir import ShamirShare


def deal_all(group, threshold, parties, secrets=None, need=None):
    """A whole dealing in one process: every dealer in ``secrets`` (dealer
    id → secret; by default a DKG, parties 1..n dealing random secrets)
    deals, and every party finalizes with ``need`` (default t+1) dealers to
    qualify."""
    if secrets is None:
        secrets = {i: group.random_scalar() for i in range(1, parties + 1)}
    deals = {i: deal(i, s, threshold, parties, group) for i, s in secrets.items()}
    need = threshold + 1 if need is None else need
    return [finalize(i, deals, need, parties, group) for i in range(1, parties + 1)]


class TestDealer:
    @pytest.mark.parametrize("scheme", ["sg02", "bls04", "kg20", "cks05", "bz03"])
    def test_deals_consistent_material(self, scheme):
        km = generate_keys(scheme, 1, 4)
        assert km.scheme == scheme
        assert km.threshold == 1
        assert km.parties == 4
        assert len(km.key_shares) == 4
        assert km.share_for(3) is km.key_shares[2]

    def test_sh00_needs_modulus_source(self, small_modulus):
        km = generate_keys("sh00", 1, 4, rsa_modulus=small_modulus)
        assert km.public_key.n == small_modulus.n

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_keys("nope", 1, 4)

    def test_group_override(self):
        km = generate_keys("sg02", 1, 4, group_name="ed25519")
        assert km.public_key.group_name == "ed25519"

    def test_share_ids_are_one_based(self):
        km = generate_keys("cks05", 1, 4)
        assert [s.id for s in km.key_shares] == [1, 2, 3, 4]


class TestDkg:
    def test_all_parties_agree(self):
        results = deal_all(get_group("ed25519"), 2, 5)
        group_keys = {r.group_key.to_bytes() for r in results}
        assert len(group_keys) == 1
        vks = {tuple(v.to_bytes() for v in r.verification_keys) for r in results}
        assert len(vks) == 1

    def test_shares_interpolate_to_group_key(self):
        group = get_group("ed25519")
        results = deal_all(group, 2, 5)
        ids = [1, 3, 5]
        lam = lagrange_coefficients_at_zero(ids, group.order)
        x = sum(results[i - 1].share_value * lam[i] for i in ids) % group.order
        assert group.generator() ** x == results[0].group_key

    def test_verification_keys_match_shares(self):
        group = get_group("ed25519")
        results = deal_all(group, 1, 4)
        for r in results:
            assert (
                group.generator() ** r.share_value
                == results[0].verification_keys[r.party_id - 1]
            )

    def test_bad_dealer_is_disqualified(self):
        group = get_group("ed25519")
        deals = {i: deal(i, group.random_scalar(), 1, 4, group) for i in range(1, 5)}
        # Corrupt dealer 2's sub-share for party 1.
        bad = deals[2]
        corrupted = dict(bad.sub_shares)
        corrupted[1] = ShamirShare(1, (corrupted[1].value + 1) % group.order)
        deals_for_p1 = dict(deals)
        deals_for_p1[2] = Deal(2, bad.commitment, corrupted)
        result = finalize(1, deals_for_p1, 2, 4, group)
        assert 2 not in result.qualified
        assert set(result.qualified) == {1, 3, 4}

    def test_abort_when_too_few_qualified(self):
        group = get_group("ed25519")
        deals = {i: deal(i, group.random_scalar(), 2, 4, group) for i in range(1, 5)}
        # Corrupt everyone but dealer 1 → only 1 qualified < t+1 = 3.
        for dealer in (2, 3, 4):
            d = deals[dealer]
            corrupted = dict(d.sub_shares)
            corrupted[1] = ShamirShare(1, (corrupted[1].value + 1) % group.order)
            deals[dealer] = Deal(dealer, d.commitment, corrupted)
        with pytest.raises(ProtocolAbortedError, match=r"dropped dealers \[2, 3, 4\]") as aborted:
            finalize(1, deals, 3, 4, group)
        assert aborted.value.reason == "byzantine_detected"

    def test_dkg_key_usable_for_coin_scheme(self):
        """DKG output plugs into CKS05 in place of dealer output."""
        from repro.schemes.cks05 import Cks05Coin, Cks05KeyShare, Cks05PublicKey

        results = deal_all(get_group("ed25519"), 1, 4)
        public = Cks05PublicKey(
            "ed25519",
            1,
            4,
            results[0].group_key,
            tuple(results[0].verification_keys),
        )
        shares = [
            Cks05KeyShare(r.party_id, r.share_value, public) for r in results
        ]
        coin = Cks05Coin()
        cs = [coin.create_coin_share(shares[i], b"dkg-coin") for i in (0, 2)]
        for share in cs:
            coin.verify_coin_share(public, b"dkg-coin", share)
        assert len(coin.combine(public, b"dkg-coin", cs)) == 32
