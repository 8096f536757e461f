"""Shared doubling chains and signed exponents give the same elements.

``GroupElement.powers`` raises one base to several scalars on one shared
run of doublings (Ed25519 overrides it; every other group keeps the
default, a ``**`` per scalar), and ``Group.multi_exp`` raises the inverse
base to |k| for an exponent past q/2.  Neither may change a result: every
element must encode to the bytes the plain ``**`` gives, and every signer
set of a threshold scheme must combine to the same coin, plaintext or
signature.
"""

from functools import reduce
from itertools import combinations
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.groups.bn254 import bn254_g1, bn254_g2
from repro.groups.ed25519 import L, ed25519
from repro.schemes import generate_keys, get_scheme

_ED = ed25519()
_ED_BASES = {
    "generator": _ED.generator(),
    "hashed": _ED.hash_to_element(b"a base with no table"),
    "identity": _ED.identity(),
}

#: Scalars at the edges of ``powers``' 43-bit chunks and of the order.
_EDGES = sorted(
    {0, 1, 2, L - 1, L, L + 1, 2 * L - 1}
    | {(1 << (43 * j)) + delta for j in range(1, 6) for delta in (-1, 0, 1)}
    | {(1 << 253) - 1}
)
_SCALARS = st.one_of(st.sampled_from(_EDGES), st.integers(0, 2 * L))


def _encoded(elements) -> list[bytes]:
    return [element.to_bytes() for element in elements]


@settings(max_examples=60, deadline=None)
@given(
    base=st.sampled_from(sorted(_ED_BASES)),
    scalars=st.lists(_SCALARS, min_size=0, max_size=4),
)
def test_ed25519_powers_match_pow(base, scalars):
    element = _ED_BASES[base]
    assert _encoded(element.powers(*scalars)) == _encoded(element**k for k in scalars)


@pytest.mark.parametrize("base", sorted(_ED_BASES))
def test_ed25519_powers_at_every_edge(base):
    element = _ED_BASES[base]
    assert _encoded(element.powers(*_EDGES)) == _encoded(element**k for k in _EDGES)


@settings(max_examples=10, deadline=None)
@given(scalars=st.lists(st.integers(0, 2 * bn254_g1().order), min_size=0, max_size=3))
def test_bn254_g1_default_powers_match_pow(scalars):
    base = bn254_g1().hash_to_element(b"a G1 base")
    assert _encoded(base.powers(*scalars)) == _encoded(base**k for k in scalars)


def _signed_cases(q: int) -> list[list[int]]:
    half = q // 2
    return [
        [-1],
        [-2],
        [q - 1],
        [half, half + 1],
        [q - 2, 2],
        [2, -1],
        [-1, -2, 3],
        [half + 12345, -(half + 1), q + 5],
        [0, -q, q - 1],
    ]


@pytest.mark.parametrize(
    "group", [ed25519(), bn254_g1(), bn254_g2()], ids=lambda group: group.name
)
def test_multi_exp_with_signed_exponents_matches_pow(group):
    bases = [group.hash_to_element(b"base %d" % i) for i in range(3)]
    for exponents in _signed_cases(group.order):
        chosen = bases[: len(exponents)]
        product = reduce(
            mul, (base**k for base, k in zip(chosen, exponents)), group.identity()
        )
        assert group.multi_exp(chosen, exponents).to_bytes() == product.to_bytes()


@settings(max_examples=15, deadline=None)
@given(exponents=st.lists(st.integers(-L, L), min_size=1, max_size=3))
def test_ed25519_multi_exp_with_random_signs_matches_pow(exponents):
    bases = [_ED.hash_to_element(b"base %d" % i) for i in range(len(exponents))]
    product = reduce(mul, (b**k for b, k in zip(bases, exponents)), _ED.identity())
    assert _ED.multi_exp(bases, exponents).to_bytes() == product.to_bytes()


# -- every signer set combines to one result ----------------------------------

_SHAPES = [(1, 4), (2, 7)]


def _subsets(parties: int, threshold: int):
    return list(combinations(range(parties), threshold + 1))


@pytest.mark.parametrize("threshold,parties", _SHAPES)
def test_every_signer_set_gives_one_coin(threshold, parties):
    keys = generate_keys("cks05", threshold, parties)
    coin = get_scheme("cks05")
    shares = [coin.create_coin_share(share, b"one coin") for share in keys.key_shares]
    values = {
        coin.combine(keys.public_key, b"one coin", [shares[i] for i in subset])
        for subset in _subsets(parties, threshold)
    }
    assert len(values) == 1


@pytest.mark.parametrize("scheme", ["sg02", "bz03"])
@pytest.mark.parametrize("threshold,parties", _SHAPES)
def test_every_signer_set_gives_one_plaintext(scheme, threshold, parties):
    keys = generate_keys(scheme, threshold, parties)
    cipher = get_scheme(scheme)
    ciphertext = cipher.encrypt(keys.public_key, b"one plaintext", b"label")
    shares = [
        cipher.create_decryption_share(share, ciphertext) for share in keys.key_shares
    ]
    plaintexts = {
        cipher.combine(keys.public_key, ciphertext, [shares[i] for i in subset])
        for subset in _subsets(parties, threshold)
    }
    assert plaintexts == {b"one plaintext"}


@pytest.mark.parametrize("threshold,parties", _SHAPES)
def test_every_signer_set_gives_one_bls04_signature(threshold, parties):
    keys = generate_keys("bls04", threshold, parties)
    bls = get_scheme("bls04")
    shares = [bls.partial_sign(share, b"one signature") for share in keys.key_shares]
    signatures = {
        bls.combine(keys.public_key, b"one signature", [shares[i] for i in subset])
        .to_bytes()
        for subset in _subsets(parties, threshold)
    }
    assert len(signatures) == 1
