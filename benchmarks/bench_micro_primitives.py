"""Microbenchmarks of the cryptographic substrates.

The paper argues microbenchmarks alone mislead (§1, §4.5); these exist to
ground the simulator's cost model and to document the pure-Python constant
factor.  The *relative* costs here must reproduce the paper's hierarchy:
ECDH ops < pairing ops < RSA ops.
"""

import pytest

from repro.core.messages import Channel, ProtocolMessage
from repro.core.protocols import (
    NonInteractiveProtocol,
    OperationRequest,
    make_operation,
)
from repro.errors import InvalidShareError, SerializationError
from repro.groups import fixed_base_table, get_group, precompute_stats
from repro.groups.bn254 import bn254_pairing
from repro.groups.bn254.pairing import _build_lines
from repro.groups.ed25519 import P as ED25519_P
from repro.mathutils.lagrange import (
    clear_lagrange_cache,
    lagrange_cache_stats,
    lagrange_coefficients_at_zero,
)
from repro.rsa.keygen import modulus_for_bits
from repro.schemes import generate_keys, get_scheme
from repro.schemes.dleq import dleq_prove, dleq_verify
from repro.symmetric import ChaCha20Poly1305

SCALAR = 0x6B21FD2A9C3F5E1804D7C90B35FA6E82


def test_ed25519_scalar_mult(benchmark):
    group = get_group("ed25519")
    base = group.generator()
    benchmark(lambda: base**SCALAR)


def test_ed25519_fixed_base_scalar_mult(benchmark):
    group = get_group("ed25519")
    table = fixed_base_table(group.generator())
    benchmark(lambda: table.pow(SCALAR))


def test_ed25519_two_base_multi_exp(benchmark):
    """The DLEQ/FROST verification shape: g2^z · h2^-c on one doubling chain."""
    group = get_group("ed25519")
    bases = [group.hash_to_element(b"bench-g2"), group.hash_to_element(b"bench-h2")]
    exponents = [SCALAR * SCALAR % group.order, -SCALAR]
    benchmark(lambda: group.multi_exp(bases, exponents))


@pytest.mark.parametrize("count", [2, 3])
def test_ed25519_powers(benchmark, count):
    """One per-request base raised to ``count`` scalars on one shared
    doubling run: SG02's share creation raises u to −e, x_i and r."""
    group = get_group("ed25519")
    base = group.hash_to_element(b"bench-u")
    scalars = [SCALAR * (i + 3) ** 40 % group.order for i in range(count)]
    benchmark(lambda: base.powers(*scalars))


@pytest.mark.parametrize("count", [2, 3])
def test_ed25519_separate_pows(benchmark, count):
    """The same powers as ``test_ed25519_powers``, one ``**`` each."""
    group = get_group("ed25519")
    base = group.hash_to_element(b"bench-u")
    scalars = [SCALAR * (i + 3) ** 40 % group.order for i in range(count)]
    benchmark(lambda: [base**k for k in scalars])


def test_ed25519_element_from_bytes(benchmark):
    """Decode + on-curve + subgroup check, paid per share on the wire."""
    group = get_group("ed25519")
    encoded = (group.generator() ** SCALAR).to_bytes()
    benchmark(lambda: group.element_from_bytes(encoded))


def test_ed25519_element_from_bytes_mixed_order(benchmark):
    """A hostile share's price: a prime-order point plus the point of order
    2, which survives the halving and is refused by the last ``pow``."""
    group = get_group("ed25519")
    x, y, _, _ = (group.generator() ** SCALAR).point  # Z = 1
    minus_x, minus_y = ED25519_P - x, ED25519_P - y  # + (0, −1)
    encoded = (minus_y | ((minus_x & 1) << 255)).to_bytes(32, "little")

    def decode():
        with pytest.raises(SerializationError):
            group.element_from_bytes(encoded)

    benchmark(decode)


def test_dleq_round_on_fresh_base(benchmark):
    """Two parties prove and cross-verify over a g2 never seen before.

    A per-request base must not earn a fixed-base table: building one costs
    more than the exponentiations it would serve before the request ends.
    """
    group = get_group("ed25519")
    g = group.generator()
    keys = [(x, g**x) for x in (SCALAR, SCALAR + 1)]
    counter = iter(range(10**9))

    def round_trip():
        g2 = group.hash_to_element(b"bench-fresh-%d" % next(counter))
        shares = [(vk, g2**x, x) for x, vk in keys]
        proofs = [dleq_prove(group, g, g2, x, h1=vk, h2=h2) for vk, h2, x in shares]
        for (vk, h2, _), proof in zip(shares, proofs):
            dleq_verify(group, g, vk, g2, h2, proof)

    round_trip()  # the generator and both keys get their tables here
    built = precompute_stats()["tables_built"]
    benchmark(round_trip)
    assert precompute_stats()["tables_built"] == built


def test_bn254_g1_fixed_base_scalar_mult(benchmark):
    table = fixed_base_table(bn254_pairing().g1.generator())
    benchmark(lambda: table.pow(SCALAR))


def test_bn254_g2_fixed_base_scalar_mult(benchmark):
    table = fixed_base_table(bn254_pairing().g2.generator())
    benchmark(lambda: table.pow(SCALAR))


def test_lagrange_coefficients_uncached(benchmark):
    q = get_group("ed25519").order
    ids = list(range(1, 12))

    def run():
        clear_lagrange_cache()
        return lagrange_coefficients_at_zero(ids, q)

    benchmark(run)


def test_lagrange_coefficients_cached(benchmark):
    q = get_group("ed25519").order
    ids = list(range(1, 12))
    lagrange_coefficients_at_zero(ids, q)  # warm
    benchmark(lambda: lagrange_coefficients_at_zero(ids, q))


def test_bn254_g1_scalar_mult(benchmark):
    g1 = bn254_pairing().g1
    base = g1.generator()
    benchmark(lambda: base**SCALAR)


def test_bn254_g1_two_base_multi_exp(benchmark):
    """The BLS04 combine shape: σ₁^λ₁ · σ₂^λ₂ on one doubling chain."""
    g1 = bn254_pairing().g1
    bases = [g1.hash_to_element(b"bench-s1"), g1.hash_to_element(b"bench-s2")]
    exponents = [SCALAR * SCALAR % g1.order, -SCALAR]
    benchmark(lambda: g1.multi_exp(bases, exponents))


def test_bn254_g2_scalar_mult(benchmark):
    g2 = bn254_pairing().g2
    base = g2.generator()
    benchmark(lambda: base**SCALAR)


def test_bn254_pairing(benchmark):
    ctx = bn254_pairing()
    p, q = ctx.g1.generator(), ctx.g2.generator()
    benchmark(lambda: ctx.pair(p, q))


@pytest.mark.parametrize("g2_points", ["fixed-Q", "fresh-Q"])
def test_bn254_pairing_check_two_pairs(benchmark, g2_points):
    """The BLS04/BZ03 verification shape: e(σ, g₂)·e(H(m)⁻¹, y) == 1.

    ``fixed-Q`` is BLS04's case: g₂ and y live as long as the key, so every
    check after the first reads their Miller lines from the tables on the
    elements.  ``fresh-Q`` passes new G2 elements on every call, as BZ03's
    per-ciphertext u is, so each call builds both tables inside its loop.
    """
    ctx = bn254_pairing()
    h = ctx.g1.hash_to_element(b"bench")
    g2 = ctx.g2.generator()
    pairs = [(h**SCALAR, g2), (h.inverse(), g2**SCALAR)]
    if g2_points == "fixed-Q":
        assert benchmark(lambda: ctx.pair_check(pairs))
        return
    identity = ctx.g2.identity()
    # q · 1 is a new element equal to q, with no lines yet.
    assert benchmark(lambda: ctx.pair_check([(p, q * identity) for p, q in pairs]))


def test_bn254_miller_lines_build(benchmark):
    """What a G2 point pays once, in its first pairing: its 88 lines,
    stepped in Jacobian coordinates and normalized with one inversion."""
    q = (bn254_pairing().g2.generator() ** SCALAR).affine()
    benchmark(lambda: _build_lines(q))


def test_bn254_g2_element_from_bytes(benchmark):
    """Decode + on-twist + subgroup check, paid per public key on the wire."""
    g2 = bn254_pairing().g2
    encoded = (g2.generator() ** SCALAR).to_bytes()
    benchmark(lambda: g2.element_from_bytes(encoded))


def test_rsa2048_exponentiation(benchmark):
    mod = modulus_for_bits(2048)
    base = mod.random_square()
    exponent = mod.n // 3
    benchmark(lambda: pow(base, exponent, mod.n))


def test_hash_to_g1(benchmark):
    g1 = bn254_pairing().g1
    counter = iter(range(10**9))
    benchmark(lambda: g1.hash_to_element(b"bench-%d" % next(counter)))


@pytest.mark.parametrize("size", [256, 4096, 65536], ids=["256B", "4KiB", "64KiB"])
def test_chacha20poly1305_decrypt(benchmark, size):
    """Tag check plus keystream: what each node pays per decrypt for the
    payload (the Fig. 5b axis)."""
    aead = ChaCha20Poly1305(bytes(32))
    sealed = aead.encrypt(bytes(12), bytes(size))
    assert benchmark(lambda: aead.decrypt(bytes(12), sealed)) == bytes(size)


def test_sg02_share_generation(benchmark, keys_by_scheme):
    keys = keys_by_scheme["sg02"]
    scheme = get_scheme("sg02")
    ct = scheme.encrypt(keys.public_key, b"bench", b"l")
    benchmark(lambda: scheme.create_decryption_share(keys.share_for(1), ct))


def test_sg02_share_verification(benchmark, keys_by_scheme):
    keys = keys_by_scheme["sg02"]
    scheme = get_scheme("sg02")
    ct = scheme.encrypt(keys.public_key, b"bench", b"l")
    share = scheme.create_decryption_share(keys.share_for(1), ct)
    benchmark(lambda: scheme.verify_decryption_share(keys.public_key, ct, share))


@pytest.mark.parametrize("ciphertext_check", [False, True], ids=["combine", "plus-check"])
def test_bz03_combine(benchmark, keys_by_scheme, ciphertext_check):
    """A node's BZ03 combine.  ``plus-check`` adds the two-pair pairing
    check of ``verify_ciphertext`` that combine ran until the check moved
    to share creation only: the difference is what each node saves."""
    keys = keys_by_scheme["bz03"]
    scheme = get_scheme("bz03")
    ct = scheme.encrypt(keys.public_key, b"bench", b"l")
    shares = [scheme.create_decryption_share(keys.share_for(i), ct) for i in (1, 2)]

    def combine():
        if ciphertext_check:
            scheme.verify_ciphertext(keys.public_key, ct)
        return scheme.combine(keys.public_key, ct, shares)

    assert benchmark(combine) == b"bench"


def test_bls04_share_verification(benchmark, keys_by_scheme):
    keys = keys_by_scheme["bls04"]
    scheme = get_scheme("bls04")
    share = scheme.partial_sign(keys.share_for(1), b"bench")
    benchmark(
        lambda: scheme.verify_signature_share(keys.public_key, b"bench", share)
    )


def test_sh00_share_generation(benchmark, keys_by_scheme):
    keys = keys_by_scheme["sh00"]
    scheme = get_scheme("sh00")
    benchmark(lambda: scheme.partial_sign(keys.share_for(1), b"bench"))


def test_cks05_coin_share(benchmark, keys_by_scheme):
    keys = keys_by_scheme["cks05"]
    scheme = get_scheme("cks05")
    benchmark(lambda: scheme.create_coin_share(keys.share_for(1), b"bench"))


@pytest.mark.parametrize("ids", [(1, 2), (1, 3)], ids=["ids-1-2", "ids-1-3"])
def test_cks05_combine(benchmark, keys_by_scheme, ids):
    """A node's CKS05 combine at t = 1: ids {1, 2} have Lagrange
    coefficients (2, −1), a few group operations with signed exponents;
    ids {1, 3} have (3/2, −1/2), two full-length exponents."""
    keys = keys_by_scheme["cks05"]
    scheme = get_scheme("cks05")
    shares = [scheme.create_coin_share(keys.share_for(i), b"bench") for i in ids]
    benchmark(lambda: scheme.combine(keys.public_key, b"bench", shares))


def test_kg20_sign_round(benchmark, keys_by_scheme):
    keys = keys_by_scheme["kg20"]
    scheme = get_scheme("kg20")
    ids = [1, 2]
    nonces = {i: scheme.commit(keys.share_for(i)) for i in ids}
    commitments = [nonces[i][1] for i in ids]
    benchmark(
        lambda: scheme.sign_round(
            keys.share_for(1), b"bench", nonces[1][0], commitments
        )
    )


#: (share checks, result checks) one node pays to admit a signing quorum,
#: by threshold.  Honest: the one check of the combined signature.  One
#: forged share arriving first: the wasted combine, the per-share checks
#: that name the culprit (free at t=1: the only unverified share), eager
#: checks for every later share, and the final combine.  The parent paid
#: (t+1, 1) for the forged schedule — verify-after-combine costs at most
#: one check more on the failure path, and t fewer on the honest one.
SIGN_ADMISSION_CHECKS = {
    ("honest", 1): (0, 1),
    ("honest", 2): (0, 1),
    ("forged_first", 1): (1, 2),
    ("forged_first", 2): (3, 2),
}


@pytest.mark.parametrize("schedule", ["honest", "forged_first"])
@pytest.mark.parametrize("threshold,parties", [(1, 4), (2, 7)])
@pytest.mark.parametrize("scheme_name", ["bls04", "sh00"])
def test_sign_admission(
    benchmark, monkeypatch, small_modulus, scheme_name, threshold, parties, schedule
):
    """Own share to finalized signature at one node, through update()."""
    extra = {"rsa_modulus": small_modulus} if scheme_name == "sh00" else {}
    keys = generate_keys(scheme_name, threshold, parties, **extra)
    scheme_type = type(get_scheme(scheme_name))
    counts = {"verify_signature_share": 0, "verify": 0}
    for name in counts:
        original = getattr(scheme_type, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(scheme_type, name, counted)

    def share_of(party, message):
        operation = make_operation(
            scheme_name,
            keys.public_key,
            keys.share_for(party),
            OperationRequest("sign", message),
        )
        return operation.create_own_share()

    payloads = [(p, share_of(p, b"bench")) for p in range(2, threshold + 2)]
    if schedule == "forged_first":
        payloads[0] = (2, share_of(2, b"another message"))
        payloads.append((threshold + 2, share_of(threshold + 2, b"bench")))

    def admit():
        operation = make_operation(
            scheme_name,
            keys.public_key,
            keys.share_for(1),
            OperationRequest("sign", b"bench"),
        )
        protocol = NonInteractiveProtocol("bench", 1, operation)
        protocol.do_round()
        for sender, payload in payloads:
            try:
                protocol.update(
                    ProtocolMessage("bench", sender, 0, Channel.P2P, payload)
                )
            except InvalidShareError:
                pass
        return protocol.finalize()

    admit()  # creating the payloads above verified nothing
    assert (counts["verify_signature_share"], counts["verify"]) == (
        SIGN_ADMISSION_CHECKS[(schedule, threshold)]
    )
    benchmark(admit)


def test_precompute_speedup_report(benchmark):
    """Before/after numbers for the precomputation layer (ISSUE 1 witness).

    Fixed-base exponentiation must beat naive double-and-add on every curve,
    and warm-cache t-of-n combine must beat the cold path for at least two
    schemes.  Printed so the numbers land in the benchmark log.
    """
    import time

    def best_of(fn, repeat=3):
        times = []
        for _ in range(repeat):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    print()
    for name in ("ed25519", "bn254g1", "bn254g2"):
        group = get_group(name)
        base = group.generator()
        table = fixed_base_table(base)
        naive = best_of(lambda: base**SCALAR)
        fast = best_of(lambda: table.pow(SCALAR))
        print(
            f"fixed-base {name}: naive {naive*1e3:.2f} ms -> table "
            f"{fast*1e3:.2f} ms ({naive/fast:.1f}x)"
        )
        assert fast < naive

    # t-of-n share combination: the seed path (per-share double-and-add plus
    # per-coefficient inversions) vs the new path (cached Lagrange sets with
    # one batched inversion + interleaved Straus multi-exp).
    from repro.mathutils.lagrange import lagrange_coefficient

    combine_speedups = {}
    for scheme_name in ("cks05", "bls04"):
        keys = generate_keys(scheme_name, 2, 5)
        scheme = get_scheme(scheme_name)
        # Non-consecutive responder ids: consecutive ids (1, 2, 3) have
        # binomial-sized Lagrange coefficients, which would make the seed
        # path artificially cheap (one full-size exponentiation instead of
        # three).  Ids (1, 3, 5) are the realistic any-t+1-responders case.
        if scheme_name == "cks05":
            shares = [
                scheme.create_coin_share(keys.share_for(i), b"bench") for i in (1, 3, 5)
            ]
            group = keys.public_key.group
            elements = [s.sigma for s in shares]
        else:
            shares = [
                scheme.partial_sign(keys.share_for(i), b"bench") for i in (1, 3, 5)
            ]
            group = keys.public_key.pairing.g1
            elements = [s.sigma for s in shares]
        ids = [s.id for s in shares]

        def seed_path():
            coefficients = {
                i: lagrange_coefficient(ids, i, 0, group.order) for i in ids
            }
            acc = group.identity()
            for element, i in zip(elements, ids):
                acc = acc * element ** coefficients[i]
            return acc

        def new_path():
            coefficients = lagrange_coefficients_at_zero(ids, group.order)
            return group.multi_exp(elements, [coefficients[i] for i in ids])

        assert seed_path() == new_path()
        before = best_of(seed_path)
        after = best_of(new_path)
        combine_speedups[scheme_name] = before / after
        print(
            f"combine core {scheme_name} (t=2): seed {before*1e3:.2f} ms -> new "
            f"{after*1e3:.2f} ms ({before/after:.2f}x)"
        )
    print(f"fixed-base cache: {precompute_stats()}")
    print(f"lagrange cache:   {lagrange_cache_stats()}")
    assert all(s > 1.0 for s in combine_speedups.values())
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_relative_cost_hierarchy(benchmark):
    """ECDH < pairing and EC < RSA — the paper's Table 1/§4.5 hierarchy."""
    import time

    group = get_group("ed25519")
    ctx = bn254_pairing()
    mod = modulus_for_bits(2048)
    base_ec = group.generator()
    p, q = ctx.g1.generator(), ctx.g2.generator()
    square = mod.random_square()

    def best_of(fn, repeat=3):
        times = []
        for _ in range(repeat):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    ec = best_of(lambda: base_ec**SCALAR)
    pairing_cost = best_of(lambda: ctx.pair(p, q))
    rsa = best_of(lambda: pow(square, mod.n // 3, mod.n))
    print(
        f"\nec mult {ec*1e3:.2f} ms | pairing {pairing_cost*1e3:.2f} ms | "
        f"rsa-2048 exp {rsa*1e3:.2f} ms"
    )
    assert ec < pairing_cost
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
