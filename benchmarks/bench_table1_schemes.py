"""Table 1 — Threshold schemes in Thetacrypt.

Regenerates the scheme inventory (kind, hardness assumption, verification
strategy) from the live registry and checks it against the paper's rows, and
benchmarks one full protocol run per scheme as the functional witness that
each row is actually implemented.
"""

import pytest

from repro.groups import precompute_stats
from repro.mathutils.lagrange import lagrange_cache_stats
from repro.schemes import SCHEME_TABLE, generate_keys, get_scheme
from repro.schemes.base import SchemeKind

from _common import print_table

# The paper's Table 1, row for row.
PAPER_TABLE_1 = {
    "sh00": ("signature", "RSA", "ZKP"),
    "kg20": ("signature", "DL", "ZKP"),
    "bls04": ("signature", "DL", "Pairings"),
    "sg02": ("cipher", "DL", "ZKP"),
    "bz03": ("cipher", "DL", "Pairings"),
    "cks05": ("randomness", "DL", "ZKP"),
}


def test_table1_inventory(benchmark):
    rows = []
    for name, info in sorted(SCHEME_TABLE.items()):
        rows.append([info.kind.value.capitalize(), name.upper(), info.hardness,
                     info.verification, info.reference])
        expected = PAPER_TABLE_1[name]
        assert (info.kind.value, info.hardness, info.verification) == expected
    print_table(
        "Table 1: threshold schemes",
        ["Kind", "Scheme", "Hardness", "Verification", "Reference"],
        rows,
    )
    benchmark.pedantic(lambda: list(SCHEME_TABLE), rounds=1, iterations=1)


@pytest.mark.parametrize("name", sorted(SCHEME_TABLE))
def test_table1_scheme_is_functional(benchmark, name, small_modulus):
    """One complete threshold operation per Table 1 row."""
    if name == "sh00":
        keys = generate_keys(name, 1, 4, rsa_modulus=small_modulus)
    else:
        keys = generate_keys(name, 1, 4)
    scheme = get_scheme(name)

    def run_once():
        if SCHEME_TABLE[name].kind is SchemeKind.CIPHER:
            ct = scheme.encrypt(keys.public_key, b"bench", b"l")
            shares = [
                scheme.create_decryption_share(keys.share_for(i), ct)
                for i in (1, 2)
            ]
            assert scheme.combine(keys.public_key, ct, shares) == b"bench"
        elif name == "kg20":
            nonces = {i: scheme.commit(keys.share_for(i)) for i in (1, 2)}
            commitments = [nonces[i][1] for i in (1, 2)]
            z = [
                scheme.sign_round(keys.share_for(i), b"bench", nonces[i][0], commitments)
                for i in (1, 2)
            ]
            scheme.combine(keys.public_key, b"bench", z, commitments)
        elif SCHEME_TABLE[name].kind is SchemeKind.SIGNATURE:
            shares = [scheme.partial_sign(keys.share_for(i), b"bench") for i in (1, 2)]
            scheme.combine(keys.public_key, b"bench", shares)
        else:
            shares = [
                scheme.create_coin_share(keys.share_for(i), b"bench") for i in (1, 2)
            ]
            assert len(scheme.combine(keys.public_key, b"bench", shares)) == 32

    benchmark.pedantic(run_once, rounds=1, iterations=1)


def test_table1_cache_counters(benchmark):
    """Precompute-layer counters accumulated by the scheme runs above.

    Warm fixed-base tables (generators, verification keys) and cached
    Lagrange sets are what make the per-scheme numbers representative of a
    long-running service node rather than a cold process.
    """
    fixed = precompute_stats()
    lagrange = lagrange_cache_stats()
    print_table(
        "Precompute caches after Table 1 runs",
        ["Cache", "Hits", "Builds", "Entries", "Capacity"],
        [
            ["fixed-base", fixed["hits"], fixed["tables_built"], fixed["tables"],
             fixed["capacity"]],
            ["lagrange", lagrange["hits"], lagrange["misses"], lagrange["size"],
             lagrange["capacity"]],
        ],
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
