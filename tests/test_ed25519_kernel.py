"""The flat Ed25519 kernel against the double-and-add ladder it replaced."""

import hashlib
import pickle
import random
import secrets

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidShareError, SerializationError
from repro.groups import ed25519 as kernel
from repro.groups.base import wnaf
from repro.groups.ed25519 import _2D, COFACTOR, L, P, Ed25519Element, ed25519
from repro.schemes import cks05, kg20, sg02
from tests import ed25519_subgroup_oracle as oracle
from tests.ed25519_subgroup_oracle import curve_point

GROUP = ed25519()
G = GROUP.generator()

# ---------------------------------------------------------------------------
# The reference: the per-step ladder and formulas of the parent commit
# ---------------------------------------------------------------------------


def ref_add(p, q):
    """add-2008-hwcd-3 for a = -1, written out without the cached operand."""
    x1, y1, z1, t1 = p
    x2, y2, z2, t2 = q
    a = (y1 - x1) * (y2 - x2) % P
    b = (y1 + x1) * (y2 + x2) % P
    c = t1 * _2D * t2 % P
    d = 2 * z1 * z2 % P
    e, f, g, h = (b - a) % P, (d - c) % P, (d + c) % P, (b + a) % P
    return e * f % P, g * h % P, f * g % P, e * h % P


def ref_mul(p, k):
    """Left-to-right binary double-and-add, no reduction of ``k``."""
    result = (0, 1, 1, 0)
    for bit in bin(k)[2:] if k else "":
        result = ref_add(result, result)
        if bit == "1":
            result = ref_add(result, p)
    return result


def element(p) -> Ed25519Element:
    return Ed25519Element(GROUP, p)


def torsion_points():
    """The seven non-trivial points of the 8-torsion subgroup."""
    counter = 0
    while True:
        t8 = ref_mul(curve_point(b"torsion%d" % counter), L)
        if element(ref_mul(t8, 4)) != GROUP.identity():  # exact order 8
            return [ref_mul(t8, i) for i in range(1, 8)]
        counter += 1


TORSION = torsion_points()

points = st.binary(min_size=1, max_size=8).map(GROUP.hash_to_element)
EDGE_SCALARS = [0, 1, 2, L - 1, L, L + 1, 2**252]
scalars = st.one_of(
    st.sampled_from(EDGE_SCALARS),
    st.integers(min_value=0, max_value=2**256 - 1),
    st.integers(min_value=2**511, max_value=2**512 - 1),
)


class TestScalarMultiplication:
    @settings(max_examples=40, deadline=None)
    @given(points, scalars)
    def test_pow_and_raw_match_the_ladder(self, base, k):
        expected = element(ref_mul(base.point, k))
        assert base**k == expected
        assert base._mul_raw(k) == expected
        assert (base**k).to_bytes() == expected.to_bytes()

    def test_negative_exponents_reduce_mod_order(self):
        base = GROUP.hash_to_element(b"negative")
        assert base**-1 == element(ref_mul(base.point, L - 1)) == base.inverse()
        assert base ** -(L + 5) == element(ref_mul(base.point, L - 5))

    def test_results_are_normalised(self):
        base = GROUP.hash_to_element(b"normalised")
        x, y, z, t = (base**12345).point
        assert z == 1 and t == x * y % P and 0 <= x < P and 0 <= y < P
        assert (base**0).point == (0, 1, 1, 0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=2**520))
    def test_signed_window_recoding(self, k):
        digits = wnaf(k)
        assert sum(d << position for position, d in digits) == k
        assert all(d & 1 and abs(d) < 16 for _, d in digits)
        positions = [position for position, _ in digits]
        assert all(b - a >= 5 for a, b in zip(positions, positions[1:]))

    def test_flat_formulas_match_the_reference(self):
        p = ref_mul(G.point, 1234567)
        q = ref_mul(G.point, 7654321)
        assert element(kernel._add(p, kernel._cached(q))) == element(ref_add(p, q))
        assert element(kernel._dbl(p)) == element(ref_add(p, p))
        assert kernel._dbl(p, False)[:3] == kernel._dbl(p)[:3]
        cached = kernel._cached(q)
        assert kernel._add(p, cached, False)[:3] == kernel._add(p, cached)[:3]
        assert element(p)._double() == element(p).double() == element(p) * element(p)


class TestMultiExp:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(points, st.just(GROUP.identity()), st.just(G)),
                st.one_of(
                    st.sampled_from([0, 1, -1, L, -L, 7, -7]),
                    st.integers(min_value=-(2**256), max_value=2**256),
                ),
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_equals_product_of_powers(self, terms):
        bases = [base for base, _ in terms]
        exponents = [exponent for _, exponent in terms]
        expected = GROUP.identity()
        for base, exponent in terms:
            expected = expected * element(ref_mul(base.point, exponent % L))
        result = GROUP.multi_exp(bases, exponents)
        assert result == expected
        assert result.point[2] == 1

    def test_duplicated_bases_and_equal_exponents(self):
        a = GROUP.hash_to_element(b"dup")
        assert GROUP.multi_exp([a, a, a], [5, 5, -10]).is_identity()
        assert GROUP.multi_exp([a, a], [3, 3]) == a**6

    def test_entry_point_still_validates(self):
        with pytest.raises(SerializationError):
            GROUP.multi_exp([G], [1, 2])
        assert GROUP.multi_exp([], []).is_identity()
        assert GROUP.multi_exp([G, G], [0, L]).is_identity()


class TestSubgroupCheck:
    def test_order_l_kills_exactly_the_subgroup(self):
        base = GROUP.hash_to_element(b"subgroup")
        assert base._mul_raw(L).is_identity()
        for torsion in TORSION:
            mixed = element(ref_add(base.point, torsion))
            assert not mixed._mul_raw(L).is_identity()
            assert mixed._mul_raw(COFACTOR * L).is_identity()

    def test_decoder_rejects_every_torsion_component(self):
        base = GROUP.hash_to_element(b"decode")
        assert GROUP.element_from_bytes(base.to_bytes()) == base
        for torsion in TORSION:
            for point in (torsion, ref_add(base.point, torsion)):
                with pytest.raises(SerializationError):
                    GROUP.element_from_bytes(element(point).to_bytes())

    def test_hash_to_element_clears_the_cofactor(self):
        for tag in (b"", b"a", b"coin name"):
            assert GROUP.hash_to_element(tag)._mul_raw(L).is_identity()


#: (case, accepted?, encoding) as ``ed25519_subgroup_oracle.table()`` generates it.
_SUBGROUP_TABLE = [
    ('small order: 0·T8', True,
     '0100000000000000000000000000000000000000000000000000000000000000'),
    ('small order: 1·T8', False,
     'c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a'),
    ('small order: 2·T8', False,
     '0000000000000000000000000000000000000000000000000000000000000080'),
    ('small order: 3·T8', False,
     '26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05'),
    ('small order: 4·T8', False,
     'ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f'),
    ('small order: 5·T8', False,
     '26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85'),
    ('small order: 6·T8', False,
     '0000000000000000000000000000000000000000000000000000000000000000'),
    ('small order: 7·T8', False,
     'c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa'),
    ('prime order: [8]·curve point', True,
     '889af993f1d437146cb84cf3f33e5929b3446ac2ffed4653db887c9ccec4494a'),
    ('mixed order: prime-order point + 1·T8', False,
     '0a0007c45dba21171c1cae817f3f3c8c89e512b39d11c302fed4f2d8e5ba787f'),
    ('mixed order: prime-order point + 2·T8', False,
     '3586b3c63d4a2aed609737fd28725c72609bbdfbca161009bcb8d74a0cd618e0'),
    ('mixed order: prime-order point + 3·T8', False,
     '42239a118485ce6c7dc9c2f8c257532d7238c9d999d0b7ebd3177270eeed4ccc'),
    ('mixed order: prime-order point + 4·T8', False,
     '6565066c0e2bc8eb9347b30c0cc1a6d64cbb953d0012b9ac24778363313bb6b5'),
    ('mixed order: prime-order point + 5·T8', False,
     'e3fff83ba245dee8e3e3517e80c0c373761aed4c62ee3cfd012b0d271a458780'),
    ('mixed order: prime-order point + 6·T8', False,
     'b8794c39c2b5d5129f68c802d78da38d9f64420435e9eff6434728b5f329e71f'),
    ('mixed order: prime-order point + 7·T8', False,
     'abdc65ee7b7a319382363d073da8acd28dc73626662f48142ce88d8f1112b333'),
    ('order 8L: curve point, cofactor kept', False,
     '9815ea6a3243259337cdf211c85f8229b5f3c67f7afdf500d988a7d470bfb906'),
    ('non-canonical: y = p + 0, sign 0', False,
     'edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f'),
    ('non-canonical: y = p + 0, sign 1', False,
     'edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff'),
    ('non-canonical: y = p + 1, sign 0', False,
     'eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f'),
    ('non-canonical: y = p + 1, sign 1', False,
     'eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff'),
    ('non-canonical: y = p + 2, sign 0', False,
     'efffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f'),
    ('non-canonical: y = p + 2, sign 1', False,
     'efffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff'),
    ('non-canonical: y = p + 3, sign 0', False,
     'f0ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f'),
    ('non-canonical: y = p + 3, sign 1', False,
     'f0ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff'),
    ('non-canonical: y = p + 4, sign 0', False,
     'f1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f'),
    ('non-canonical: y = p + 4, sign 1', False,
     'f1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff'),
    ('non-canonical: y = p + 5, sign 0', False,
     'f2ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f'),
    ('non-canonical: y = p + 5, sign 1', False,
     'f2ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff'),
    ('non-canonical: y = p + 6, sign 0', False,
     'f3ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f'),
    ('non-canonical: y = p + 6, sign 1', False,
     'f3ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff'),
    ('non-canonical: y = p + 7, sign 0', False,
     'f4ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f'),
    ('non-canonical: y = p + 7, sign 1', False,
     'f4ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff'),
    ('non-canonical: y = p + 8, sign 0', False,
     'f5ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f'),
    ('non-canonical: y = p + 8, sign 1', False,
     'f5ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff'),
    ('non-canonical: y = p + 9, sign 0', False,
     'f6ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f'),
    ('non-canonical: y = p + 9, sign 1', False,
     'f6ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff'),
    ('non-canonical: y = p + 10, sign 0', False,
     'f7ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f'),
    ('non-canonical: y = p + 10, sign 1', False,
     'f7ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff'),
    ('non-canonical: y = p + 11, sign 0', False,
     'f8ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f'),
    ('non-canonical: y = p + 11, sign 1', False,
     'f8ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff'),
    ('non-canonical: y = p + 12, sign 0', False,
     'f9ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f'),
    ('non-canonical: y = p + 12, sign 1', False,
     'f9ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff'),
    ('non-canonical: y = p + 13, sign 0', False,
     'faffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f'),
    ('non-canonical: y = p + 13, sign 1', False,
     'faffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff'),
    ('non-canonical: y = p + 14, sign 0', False,
     'fbffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f'),
    ('non-canonical: y = p + 14, sign 1', False,
     'fbffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff'),
    ('non-canonical: y = p + 15, sign 0', False,
     'fcffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f'),
    ('non-canonical: y = p + 15, sign 1', False,
     'fcffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff'),
    ('non-canonical: y = p + 16, sign 0', False,
     'fdffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f'),
    ('non-canonical: y = p + 16, sign 1', False,
     'fdffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff'),
    ('non-canonical: y = p + 17, sign 0', False,
     'feffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f'),
    ('non-canonical: y = p + 17, sign 1', False,
     'feffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff'),
    ('non-canonical: y = p + 18, sign 0', False,
     'ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f'),
    ('non-canonical: y = p + 18, sign 1', False,
     'ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff'),
    ('non-canonical: x = 0, y = 1, sign 1', False,
     '0100000000000000000000000000000000000000000000000000000000000080'),
    ('non-canonical: x = 0, y = p - 1, sign 1', False,
     'ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff'),
    ('off the curve: y = 2', False,
     '0200000000000000000000000000000000000000000000000000000000000000'),
]


class TestSubgroupOracle:
    """The two-``pow`` prime-order check against ``[L]P = O``
    (``tests/ed25519_subgroup_oracle.py``): the same bytes are accepted."""

    def test_frozen_table_is_the_oracles(self):
        generated = [(name, ok, data) for name, data, ok in oracle.table()]
        assert generated == _SUBGROUP_TABLE

    @pytest.mark.parametrize(
        "accepted,data",
        [row[1:] for row in _SUBGROUP_TABLE],
        ids=[row[0] for row in _SUBGROUP_TABLE],
    )
    def test_decoder_follows_the_frozen_table(self, accepted, data):
        encoded = bytes.fromhex(data)
        if accepted:
            assert GROUP.element_from_bytes(encoded).to_bytes() == encoded
        else:
            with pytest.raises(SerializationError):
                GROUP.element_from_bytes(encoded)

    @settings(max_examples=40, deadline=None)
    @given(st.binary(max_size=16))
    def test_decoder_accepts_exactly_what_the_oracle_accepts(self, tag):
        subgroup = GROUP.hash_to_element(tag).point
        candidates = [curve_point(b"full" + tag), subgroup]
        candidates += [ref_add(subgroup, torsion) for torsion in TORSION]
        for point in candidates:
            encoded = oracle.encode(point)
            expected = oracle.decode(encoded)
            try:
                decoded = GROUP.element_from_bytes(encoded)
            except SerializationError:
                assert expected is None
            else:
                assert expected is not None and decoded == element(expected)

    def test_the_checks_constants(self):
        """c² = −(A+2); S lies on M' with 2S = (A+2, 0); t₄((0, 0), S) = −1."""
        a, s_x, s_y = kernel._A, kernel._S_X, kernel._S_Y
        assert kernel._C**2 % P == -(a + 2) % P
        assert s_y**2 % P == s_x * (s_x * s_x - 2 * a * s_x + a * a - 4) % P
        # The tangent at S meets M' again at −2S = 2S = (A+2, 0).
        assert (0 - kernel._S_SLOPE * (a + 2) + kernel._S_LINE) % P == 0
        value = kernel._S_LINE**2 * pow(-(a + 2), 3, P) % P
        assert pow(value, (P - 1) // 4, P) == P - 1


class TestEncoding:
    def test_normalised_elements_encode_without_inversion(self, monkeypatch):
        power = GROUP.hash_to_element(b"enc") ** 99
        product = power * G
        expected = product.to_bytes()  # Z != 1: this one inverts
        monkeypatch.setattr(kernel, "_affine", None)  # the one inversion
        assert power.to_bytes() == power.to_bytes()
        assert product.to_bytes() is expected
        assert hash(product) == hash(expected)
        assert GROUP.element_from_bytes(expected) == product

    def test_memo_survives_pickling_and_keeps_equality(self):
        product = (G**5) * (G**6)
        encoded = product.to_bytes()
        clone = pickle.loads(pickle.dumps(product))
        assert clone == product == G**11
        assert clone.to_bytes() == encoded == (G**11).to_bytes()


RFC8032_KEYS = [
    (
        "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
        "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
    ),
    (
        "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
        "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
    ),
    (
        "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
        "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
    ),
]


@pytest.mark.parametrize("seed,public", RFC8032_KEYS)
def test_rfc8032_public_keys_from_seeds(seed, public):
    digest = bytearray(hashlib.sha512(bytes.fromhex(seed)).digest()[:32])
    digest[0] &= 248
    digest[31] = (digest[31] & 127) | 64
    scalar = int.from_bytes(digest, "little")
    assert (G**scalar).to_bytes().hex() == public
    assert G._mul_raw(scalar).to_bytes().hex() == public


# ---------------------------------------------------------------------------
# Vectors recorded at the parent commit (ae3680d) under seeded ``secrets``
# ---------------------------------------------------------------------------


def _seed_secrets(monkeypatch, seed=20260809):
    """Replace the ``secrets`` entropy taps with a seeded stream.

    Every scheme draws randomness through ``secrets.randbelow`` /
    ``token_bytes`` / ``randbits`` (directly or via ``random_scalar``),
    so pinning those makes a whole keygen→sign/encrypt→combine transcript
    a deterministic function of the seed alone.
    """
    rng = random.Random(seed)
    monkeypatch.setattr(secrets, "randbelow", rng.randrange)
    monkeypatch.setattr(secrets, "token_bytes", lambda n=32: rng.randbytes(n))
    monkeypatch.setattr(secrets, "randbits", rng.getrandbits)


CKS05_PUBLIC = (
    "00000007656432353531390000000101000000010400000020db0c27c47b56b108ad17c4"
    "eec657797ae3434cf0fc87395096ade5c685bef31f000000203a169dc59e2d7ac759aa4b"
    "c9cfc7c16a7d1f359058665e003439c57021cf5b7d00000020ddf178557b9d49c384fbe3"
    "21c0848155ac53469c8872d5ebdd6262de4b4f6a2b00000020160279480ea261c0b618d9"
    "6a881d3b4a4e9819b49859d8a769bae8b4757d237a00000020f9b5995a331d900c4b7ac3"
    "31a175d4fef96ae70d6d81ea32807bc700f0371a11"
)
#: (party, name, that party's share, the next party's share, coin value)
CKS05_COINS = [
    (
        1,
        b"frozen coin a",
        "000000010100000020ea776a0609e8e6a1e4a55059368d01c54e4217e73607ee3ec6"
        "aef51a2b2cce110000001fe6f31dc0ace9995d91acc7cdf67667f6fd1e291b6e73bc"
        "33401374dd79ea40000000200fb13206072d272338a73febdba075faff583e25aefc"
        "9be0f9def24f4117dff7",
        "00000001020000002068d55ed69faa3b24bb1ec3aa03a9e8fc7efba1859154b05a58"
        "61909b4286d7460000002001dc4eddd0afbf03e65f29d351cf960751b00bb5c5728a"
        "62110668d2e188daaf0000002007d0f361791b49380b9b29a645f947298a0dd0eee3"
        "817dcf9754341b35cb460f",
        "efdb2bd689b9d4092114a2e60951f7d9c4fc3ccf5acae9effa6155a39f788fcc",
    ),
    (
        2,
        b"frozen coin b",
        "0000000102000000204177d1e036061a652863ea551b26086ec22056a06e35b4e70c"
        "0a4f0b25b4eb3d000000200c36021724230a68f83af4a49f3814824dacf190d95744"
        "8019f72aaa12ba3f95000000200dcff178e078370ee0ec5a113c898f25d6c0d8eb86"
        "9ec811fd029b75218c6ee6",
        "0000000103000000205d99ee2b8de045e342cda2fa7360c42588ce73680545a6b694"
        "cc679c93bd17810000002003bc027a5336ab613bc7c22d599f71367852a60f39c738"
        "0f9d93f75484b70b4c00000020041dab776143f65e6bcd7d736f5e6ac869dc143e21"
        "7094813e83d25f0e81ab3c",
        "8cff1fe474f514b80de51c984c80fd3db480acfa76f1bb3b910c3727ad82054a",
    ),
    (
        4,
        b"frozen coin c",
        "0000000104000000209310d85351a2873bf4b1090c54f6663fdd6cd9e92d743c3aa8"
        "a41b0d0d63c6a4000000200b4d795fbd763ef90c349e24a83a825762b7dc14d43201"
        "50a4fb9c8d52fdb03f000000200e368f5f597a8e766f738bffba7a36479c5877a3e1"
        "8a4a247deabe6039964be1",
        "000000010100000020ead7475ed1c9c8c62382a5ad652e19326e49fc4b834c58cc3f"
        "91a0598048758e0000002007577c6731bab1a96deef5c26405d9acaa74c93b31b81a"
        "0d0702384ca2ea8c5d0000002009be5b7441a565752d19306b1a37644c20f5756b97"
        "3ed95335bd1883cbf70866",
        "9d1eba02351a39d7e4ca280fd12e8181009448af548fbef98bc990bdd16f4f17",
    ),
]

SG02_PUBLIC = (
    "00000007656432353531390000000101000000010400000020427fc60d025dc7efb9bf1d"
    "2b5374425ac9223fc984d252d88c864008d7de98e9000000203e7481555e5ab565a81768"
    "976e8095a80462dd116f1c7035f42a7e6d383b5754000000207060f545b5686e9c130bc1"
    "d877f0df8e10f735b5f88e080b45fe50ffdff76b9e000000203417aaae6afd3067016e4d"
    "837684fa9b52a4ee0772d079441114e1122a18f0eb000000201870ee9ae67cbba74a0d62"
    "1ea87041775610a1b375f22c9036fbcdc5cac07272"
)
SG02_CIPHERTEXT = (
    "0000000c66726f7a656e206c6162656c00000020d5b58e6988e73e49c98069ecce9d4abc"
    "184f904cf6939f3fbbdb445e68b6cc59000000205369f55652e65a9eb7f7a62017dad804"
    "dafeba2972d772ce2f92cac1aa73689700000020463cec91bd5571da1cb5414612558aac"
    "0adfe28c3aae7e529993d3bddb97da0500000020015ae6f8566b56764c721bc083456e60"
    "9ad5469eff13cfb2a751b69598271a340000001f50b7802dc3641471d39b7ea4d5b1426b"
    "5e430b801f86cb21cbc9bbd0faaad30000000c2ff759fe8a7684fc93ed208000000020bf"
    "2914c9799e8bcbcc1c0dd554870a15eebdab0a91077f43464f767ba5750c34"
)
#: Decryption shares of parties 2 and 3.
SG02_SHARES = [
    "0000000102000000201a2e79711d4d5659d9c839d5f5f09e22e4506a410d0266bb77a67c"
    "d1450b5602000000200c404db67d085af0ba346aca03083912d7271a5656b6679a6d2328"
    "d99933955b000000200b3884c931375bb15278048a68085f75583c00755ddc654db4fb6c"
    "79963eb397",
    "000000010300000020b153d7ef846bce08967c57b8bffd0cee3775293a93d102f4d0b70f"
    "cabe060e78000000200315e6677fe43d2fbb55b35f563177cb3c013f9468fcef11f8989a"
    "25aa6a0e54000000200956f32bf7f93cb9ea27235e4af5e512307edeb43b9bab44fb9c34"
    "f07300b8b6",
]
SG02_PLAINTEXT = b"frozen plaintext"

KG20_PUBLIC = (
    "00000007656432353531390000000101000000010400000020e237619c8b505e37e27fd0"
    "62055f943f2ff40651ccedd4702a9badca017d40520000002001887aa5333e494d75d879"
    "3d2813f51df0c369e0c962bac06f60ff76bfafd60e000000200ce6874b21ddccc86e6bd8"
    "7759a3f33f08eb7a45e26846ddaea82ad78d15124e000000207ebce8412e601a9e6ab606"
    "97d6ac6c55e24dd9087376d6e5a6f941fe7f60cb2b0000002089c991ae8f0f1d72fa21c7"
    "7130a60e4815527fc85868163fc6bc78dd41181e64"
)
#: Nonce commitments and signature shares of parties 2 and 3.
KG20_COMMITMENTS = [
    "00000001020000002091bd0196a94400d9d7e71bfcb6349d4b0336d823f17497cdf7cef2"
    "30525156e5000000208a3f25c40f7125ea07adcda9dbd2c6b5211b98a0944e702faa31bf"
    "d208836ed7",
    "00000001030000002018174b0aea59d9287f1acbc4f7b39edbb214797264e2e1f57bac62"
    "746d88ef7000000020994b0c9f8094427b5b59c92fca5cfa8962fa0e0f7ce7801255f2bb"
    "923f5cf6c4",
]
KG20_SHARES = [
    "0000000102000000200b4e1aefaf720762056dcde3cff57b3b936503442c7d8e4382c204"
    "47fd95dab2",
    "00000001030000002004ec42459c36777176a1e12f5e1b70af988a412d132f4e88608417"
    "7a28da617a",
]
KG20_SIGNATURE = (
    "00000020de2514dca2c0217b4068abfb95a6a288dcfa50bd7508d44df7e55fbe72932bd4"
    "0000001f3a5d354ba87ed37c0faf132e10ebeb17104a929cb53ff58b33b8a7c97a683f"
)
KG20_MESSAGE = b"frozen frost message"


class TestParentCommitVectors:
    """Both directions: this code reproduces the parent's bytes from the same
    randomness, and accepts the parent's bytes off the wire."""

    def test_cks05_shares_and_coins(self, monkeypatch):
        _seed_secrets(monkeypatch, 20260928)
        public, key_shares = cks05.keygen(1, 4)
        assert public.to_bytes().hex() == CKS05_PUBLIC
        coin = cks05.Cks05Coin()
        for party, name, own, other, value in CKS05_COINS:
            shares = [
                coin.create_coin_share(key_shares[party - 1], name),
                coin.create_coin_share(key_shares[party % 4], name),
            ]
            assert [s.to_bytes().hex() for s in shares] == [own, other]
            assert coin.combine(public, name, shares).hex() == value

    def test_cks05_parent_shares_verify_here(self):
        public = cks05.Cks05PublicKey.from_bytes(bytes.fromhex(CKS05_PUBLIC))
        coin = cks05.Cks05Coin()
        for _, name, own, other, value in CKS05_COINS:
            shares = [
                cks05.Cks05CoinShare.from_bytes(bytes.fromhex(data), GROUP)
                for data in (own, other)
            ]
            for share in shares:
                coin.verify_coin_share(public, name, share)
            assert coin.combine(public, name, shares).hex() == value

    def test_sg02_share_and_plaintext(self, monkeypatch):
        _seed_secrets(monkeypatch, 20260929)
        public, key_shares = sg02.keygen(1, 4)
        cipher = sg02.Sg02Cipher()
        ciphertext = cipher.encrypt(public, SG02_PLAINTEXT, b"frozen label")
        assert public.to_bytes().hex() == SG02_PUBLIC
        assert ciphertext.to_bytes().hex() == SG02_CIPHERTEXT
        shares = [
            cipher.create_decryption_share(key_shares[i], ciphertext) for i in (1, 2)
        ]
        assert [s.to_bytes().hex() for s in shares] == SG02_SHARES
        assert cipher.combine(public, ciphertext, shares) == SG02_PLAINTEXT

    def test_sg02_parent_shares_verify_here(self):
        public = sg02.Sg02PublicKey.from_bytes(bytes.fromhex(SG02_PUBLIC))
        ciphertext = sg02.Sg02Ciphertext.from_bytes(
            bytes.fromhex(SG02_CIPHERTEXT), GROUP
        )
        shares = [
            sg02.Sg02DecryptionShare.from_bytes(bytes.fromhex(data), GROUP)
            for data in SG02_SHARES
        ]
        cipher = sg02.Sg02Cipher()
        cipher.verify_ciphertext(public, ciphertext)
        for share in shares:
            cipher.verify_decryption_share(public, ciphertext, share)
        assert cipher.combine(public, ciphertext, shares) == SG02_PLAINTEXT

    def test_frost_signature(self, monkeypatch):
        _seed_secrets(monkeypatch, 20260930)
        public, key_shares = kg20.keygen(1, 4)
        assert public.to_bytes().hex() == KG20_PUBLIC
        scheme = kg20.Kg20SignatureScheme()
        nonces = {i: scheme.commit(key_shares[i - 1]) for i in (2, 3)}
        commitments = [nonces[i][1] for i in (2, 3)]
        assert [c.to_bytes().hex() for c in commitments] == KG20_COMMITMENTS
        shares = [
            scheme.sign_round(key_shares[i - 1], KG20_MESSAGE, nonces[i][0], commitments)
            for i in (2, 3)
        ]
        assert [s.to_bytes().hex() for s in shares] == KG20_SHARES
        signature = scheme.combine(public, KG20_MESSAGE, shares, commitments)
        assert signature.to_bytes().hex() == KG20_SIGNATURE


def _frozen_frost():
    public = kg20.Kg20PublicKey.from_bytes(bytes.fromhex(KG20_PUBLIC))
    commitments = [
        kg20.NonceCommitment.from_bytes(bytes.fromhex(data), GROUP)
        for data in KG20_COMMITMENTS
    ]
    shares = [
        kg20.Kg20SignatureShare.from_bytes(bytes.fromhex(data)) for data in KG20_SHARES
    ]
    return kg20.Kg20SignatureScheme(), public, commitments, shares


class TestFrostShareCheck:
    """``verify_signature_share`` on one doubling chain: same verdicts."""

    def test_parent_shares_and_signature_verify_here(self):
        scheme, public, commitments, shares = _frozen_frost()
        for share in shares:
            scheme.verify_signature_share(public, KG20_MESSAGE, share, commitments)
        signature = kg20.Kg20Signature.from_bytes(bytes.fromhex(KG20_SIGNATURE), GROUP)
        scheme.verify(public, KG20_MESSAGE, signature)
        assert scheme.combine(public, KG20_MESSAGE, shares, commitments) == signature

    def test_forged_z_rejected(self):
        scheme, public, commitments, shares = _frozen_frost()
        forged = kg20.Kg20SignatureShare(shares[0].id, (shares[0].z + 1) % L)
        with pytest.raises(InvalidShareError):
            scheme.verify_signature_share(public, KG20_MESSAGE, forged, commitments)

    def test_forged_big_e_rejected(self):
        scheme, public, commitments, shares = _frozen_frost()
        first = commitments[0]
        tampered = [
            kg20.NonceCommitment(first.id, first.big_d, first.big_e * G),
            commitments[1],
        ]
        with pytest.raises(InvalidShareError):
            scheme.verify_signature_share(public, KG20_MESSAGE, shares[0], tampered)

    def test_wrong_id_rejected(self):
        scheme, public, commitments, shares = _frozen_frost()
        swapped = kg20.Kg20SignatureShare(shares[1].id, shares[0].z)
        with pytest.raises(InvalidShareError):
            scheme.verify_signature_share(public, KG20_MESSAGE, swapped, commitments)
        outsider = kg20.Kg20SignatureShare(1, shares[0].z)
        with pytest.raises(InvalidShareError):
            scheme.verify_signature_share(public, KG20_MESSAGE, outsider, commitments)
