"""Chaum–Pedersen DLEQ proofs: soundness knobs and serialization."""

import pytest

from repro.errors import InvalidProofError
from repro.groups import get_group
from repro.schemes.dleq import DleqProof, dleq_prove, dleq_verify


@pytest.fixture(scope="module")
def setup():
    group = get_group("ed25519")
    g1 = group.generator()
    g2 = group.hash_to_element(b"second base")
    x = group.random_scalar()
    return group, g1, g2, x


def test_honest_proof_verifies(setup):
    group, g1, g2, x = setup
    proof = dleq_prove(group, g1, g2, x)
    dleq_verify(group, g1, g1**x, g2, g2**x, proof)


def test_context_binding(setup):
    group, g1, g2, x = setup
    proof = dleq_prove(group, g1, g2, x, context=b"ctx-a")
    dleq_verify(group, g1, g1**x, g2, g2**x, proof, context=b"ctx-a")
    with pytest.raises(InvalidProofError):
        dleq_verify(group, g1, g1**x, g2, g2**x, proof, context=b"ctx-b")


def test_wrong_statement_rejected(setup):
    group, g1, g2, x = setup
    proof = dleq_prove(group, g1, g2, x)
    with pytest.raises(InvalidProofError):
        dleq_verify(group, g1, g1 ** (x + 1), g2, g2**x, proof)


def test_unequal_exponents_rejected(setup):
    group, g1, g2, x = setup
    # h1 = g1^x but h2 = g2^(x+5): not a DLEQ statement.
    proof = dleq_prove(group, g1, g2, x)
    with pytest.raises(InvalidProofError):
        dleq_verify(group, g1, g1**x, g2, g2 ** (x + 5), proof)


def test_tampered_challenge_rejected(setup):
    group, g1, g2, x = setup
    proof = dleq_prove(group, g1, g2, x)
    bad = DleqProof((proof.challenge + 1) % group.order, proof.response)
    with pytest.raises(InvalidProofError):
        dleq_verify(group, g1, g1**x, g2, g2**x, bad)


def test_tampered_response_rejected(setup):
    group, g1, g2, x = setup
    proof = dleq_prove(group, g1, g2, x)
    bad = DleqProof(proof.challenge, (proof.response + 1) % group.order)
    with pytest.raises(InvalidProofError):
        dleq_verify(group, g1, g1**x, g2, g2**x, bad)


def test_out_of_range_values_rejected(setup):
    group, g1, g2, x = setup
    bad = DleqProof(group.order, 0)
    with pytest.raises(InvalidProofError):
        dleq_verify(group, g1, g1**x, g2, g2**x, bad)


def test_serialization_round_trip(setup):
    group, g1, g2, x = setup
    proof = dleq_prove(group, g1, g2, x)
    assert DleqProof.from_bytes(proof.to_bytes()) == proof


def test_proof_transfers_between_statements_fails(setup):
    group, g1, g2, x = setup
    y = group.random_scalar()
    proof_x = dleq_prove(group, g1, g2, x)
    with pytest.raises(InvalidProofError):
        dleq_verify(group, g1, g1**y, g2, g2**y, proof_x)


# ---------------------------------------------------------------------------
# Accept/reject table: four coin-share statements × eight presentations
# ---------------------------------------------------------------------------

KINDS = (
    "valid",
    "sigma off by one",
    "challenge off by one",
    "response off by one",
    "proof for another name",
    "another party's proof",
    "sigma with a small-order component",
    "value out of range",
)


@pytest.fixture(scope="module")
def verdict_table():
    """32 (kind, statement) rows; only the ``valid`` ones may verify.

    A statement is the ``(g1, h1, g2, h2, proof, context)`` argument tuple
    of :func:`dleq_verify`.
    """
    from repro.groups.ed25519 import P, Ed25519Element

    group = get_group("ed25519")
    g = group.generator()
    order_two = Ed25519Element(group, (0, P - 1, 1, 0))  # the point (0, −1)
    secrets_ = [group.random_scalar() for _ in range(4)]
    rows = []
    for party, x in enumerate(secrets_):
        name = b"coin %d" % party
        vk, g_hat = g**x, group.hash_to_element(name)
        sigma = g_hat**x
        proof = dleq_prove(group, g, g_hat, x, name, h1=vk, h2=sigma)
        c, z = proof.challenge, proof.response
        other_hat = group.hash_to_element(name + b"'")
        other_x = secrets_[(party + 1) % 4]
        out_of_range = (
            DleqProof(c + group.order, z),
            DleqProof(c, z + group.order),
            DleqProof(-1, z),
            DleqProof(c, group.order),
        )[party]
        presented = (
            (sigma, proof),
            (sigma * g_hat, proof),
            (sigma, DleqProof((c + 1) % group.order, z)),
            (sigma, DleqProof(c, (z + 1) % group.order)),
            (sigma, dleq_prove(group, g, other_hat, x, name + b"'", h1=vk)),
            (sigma, dleq_prove(group, g, g_hat, other_x, name)),
            (sigma * order_two, proof),
            (sigma, out_of_range),
        )
        for kind, (h2, shown) in zip(KINDS, presented):
            rows.append((kind, (g, vk, g_hat, h2, shown, name)))
    return group, rows


def test_accept_reject_table(verdict_table):
    group, rows = verdict_table
    assert len(rows) == 32
    for kind, statement in rows:
        if kind == "valid":
            dleq_verify(group, *statement)
        else:
            with pytest.raises(InvalidProofError):
                dleq_verify(group, *statement)
