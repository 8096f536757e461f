"""Resharing / proactive refresh: key preserved, old shares retired."""

import pytest

from repro.errors import ConfigurationError, ProtocolAbortedError
from repro.groups import get_group
from repro.mathutils.lagrange import lagrange_coefficients_at_zero
from repro.schemes import cks05, generate_keys, get_scheme
from repro.schemes.dealing import Deal, deal, finalize, refresh_secret
from repro.sharing.shamir import ShamirShare
from tests.test_keygen_dkg import deal_all


@pytest.fixture()
def old_key():
    return generate_keys("cks05", 1, 4)


def _old_share_map(material):
    return {share.id: share.value for share in material.key_shares}


def _reshare(old_shares, quorum, new_threshold, new_parties, group):
    """Quorum members re-share λ_i·x_i to (t', n'); every dealer must qualify."""
    secrets = {
        i: refresh_secret(i, old_shares[i], quorum, group) for i in quorum
    }
    return deal_all(group, new_threshold, new_parties, secrets, need=len(quorum))


class TestResharing:
    def test_group_key_preserved(self, old_key):
        group = get_group("ed25519")
        results = _reshare(_old_share_map(old_key), [1, 3], 2, 7, group)
        assert len(results) == 7
        for result in results:
            assert result.group_key == old_key.public_key.h

    def test_new_structure_is_functional(self, old_key):
        """Reshare 2-of-4 → 3-of-7, then flip a coin with the new quorum."""
        group = get_group("ed25519")
        results = _reshare(_old_share_map(old_key), [2, 4], 2, 7, group)
        public = cks05.Cks05PublicKey(
            "ed25519", 2, 7, results[0].group_key, results[0].verification_keys
        )
        shares = [
            cks05.Cks05KeyShare(r.party_id, r.share_value, public) for r in results
        ]
        coin = get_scheme("cks05")
        name = b"post-reshare"
        cs = [coin.create_coin_share(shares[i], name) for i in (0, 3, 6)]
        for share in cs:
            coin.verify_coin_share(public, name, share)
        value = coin.combine(public, name, cs)

        # The coin from the OLD shares is identical: same secret, same key.
        old_coin_shares = [
            coin.create_coin_share(old_key.share_for(i), name) for i in (1, 2)
        ]
        assert coin.combine(old_key.public_key, name, old_coin_shares) == value

    def test_new_shares_interpolate_to_same_secret(self, old_key):
        group = get_group("ed25519")
        old = _old_share_map(old_key)
        # Recover x from the old sharing.
        lam = lagrange_coefficients_at_zero([1, 2], group.order)
        x = (old[1] * lam[1] + old[2] * lam[2]) % group.order
        results = _reshare(old, [1, 2], 3, 8, group)
        ids = [2, 4, 6, 8]
        lam_new = lagrange_coefficients_at_zero(ids, group.order)
        x_again = (
            sum(results[i - 1].share_value * lam_new[i] for i in ids) % group.order
        )
        assert x_again == x

    def test_refresh_changes_shares_but_not_key(self, old_key):
        """Proactive refresh: same (t, n), brand-new shares."""
        group = get_group("ed25519")
        old = _old_share_map(old_key)
        results = _reshare(old, [1, 2], 1, 4, group)
        assert results[0].group_key == old_key.public_key.h
        changed = [r for r in results if r.share_value != old[r.party_id]]
        assert len(changed) == 4  # new polynomial with overwhelming probability

    def test_old_and_new_shares_do_not_mix(self, old_key):
        # Shares from different sharings interpolate to garbage.
        group = get_group("ed25519")
        old = _old_share_map(old_key)
        results = _reshare(old, [1, 2], 1, 4, group)
        lam = lagrange_coefficients_at_zero([1, 2], group.order)
        mixed = (old[1] * lam[1] + results[1].share_value * lam[2]) % group.order
        assert group.generator() ** mixed != old_key.public_key.h

    def test_tampered_deal_identifies_culprit(self, old_key):
        group = get_group("ed25519")
        old = _old_share_map(old_key)
        deals = {
            i: deal(i, refresh_secret(i, old[i], [1, 2], group), 1, 4, group)
            for i in (1, 2)
        }
        bad = deals[2]
        corrupted = dict(bad.sub_shares)
        corrupted[3] = ShamirShare(3, (corrupted[3].value + 1) % group.order)
        deals[2] = Deal(2, bad.commitment, corrupted)
        with pytest.raises(ProtocolAbortedError, match=r"dropped dealers \[2\]") as aborted:
            finalize(3, deals, 2, 4, group)
        assert aborted.value.reason == "byzantine_detected"
        # Other new parties are unaffected.
        finalize(1, deals, 2, 4, group)

    def test_missing_deal_rejected(self, old_key):
        group = get_group("ed25519")
        old = _old_share_map(old_key)
        deals = {1: deal(1, refresh_secret(1, old[1], [1, 2], group), 1, 4, group)}
        with pytest.raises(ProtocolAbortedError, match="need 2"):
            finalize(1, deals, 2, 4, group)

    def test_dealer_outside_quorum_rejected(self, old_key):
        group = get_group("ed25519")
        with pytest.raises(ConfigurationError):
            refresh_secret(4, 123, [1, 2], group)

    def test_invalid_new_structure_rejected(self, old_key):
        group = get_group("ed25519")
        with pytest.raises(ConfigurationError):
            deal(1, refresh_secret(1, 123, [1, 2], group), 4, 4, group)

    def test_works_on_bn254g1(self):
        material = generate_keys("cks05", 1, 4, group_name="bn254g1")
        group = get_group("bn254g1")
        results = _reshare(_old_share_map(material), [1, 4], 1, 5, group)
        assert all(r.group_key == material.public_key.h for r in results)
