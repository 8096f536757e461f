"""The §3.5 portability claim: the DL schemes run unchanged on another group.

CKS05, SG02 and KG20 are written against the abstract group interface; the
defaults put them on Ed25519, and these tests run them on BN254's G1.
"""


class TestSchemePortability:
    """The §3.5 promise: new group, zero scheme changes."""

    def test_cks05_on_bn254g1(self):
        from repro.schemes import cks05, get_scheme

        public, shares = cks05.keygen(1, 4, group_name="bn254g1")
        coin = get_scheme("cks05")
        cs = [coin.create_coin_share(shares[i], b"g1-coin") for i in (0, 2)]
        for share in cs:
            coin.verify_coin_share(public, b"g1-coin", share)
        value_a = coin.combine(public, b"g1-coin", cs)
        other = [coin.create_coin_share(shares[i], b"g1-coin") for i in (1, 3)]
        assert coin.combine(public, b"g1-coin", other) == value_a

    def test_sg02_on_bn254g1(self):
        from repro.schemes import get_scheme, sg02

        public, shares = sg02.keygen(1, 4, group_name="bn254g1")
        cipher = get_scheme("sg02")
        ct = cipher.encrypt(public, b"cross-curve secret", b"l")
        dec = [cipher.create_decryption_share(shares[i], ct) for i in (0, 3)]
        for share in dec:
            cipher.verify_decryption_share(public, ct, share)
        assert cipher.combine(public, ct, dec) == b"cross-curve secret"

    def test_kg20_on_bn254g1(self):
        from repro.schemes import get_scheme, kg20

        public, shares = kg20.keygen(1, 4, group_name="bn254g1")
        scheme = get_scheme("kg20")
        ids = [1, 4]
        nonces = {i: scheme.commit(shares[i - 1]) for i in ids}
        commitments = [nonces[i][1] for i in ids]
        z = [
            scheme.sign_round(shares[i - 1], b"g1-message", nonces[i][0], commitments)
            for i in ids
        ]
        signature = scheme.combine(public, b"g1-message", z, commitments)
        scheme.verify(public, b"g1-message", signature)

    def test_dkg_on_bn254g1(self):
        from repro.groups import get_group
        from tests.test_keygen_dkg import deal_all

        results = deal_all(get_group("bn254g1"), 1, 4)
        assert len({r.group_key.to_bytes() for r in results}) == 1

    def test_serialization_round_trips_via_registry(self):
        from repro.schemes import cks05

        public, _ = cks05.keygen(1, 4, group_name="bn254g1")
        restored = cks05.Cks05PublicKey.from_bytes(public.to_bytes())
        assert restored.group_name == "bn254g1"
        assert restored.h == public.h
