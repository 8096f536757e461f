"""Math backends: batched fusion vs the pure reference, and gmpy2 when present.

The backend registry's performance claims (docs/performance.md, "Math
backends") are:

* **batched never regresses** — scalar entry points delegate verbatim to
  the pure backend, and the fused batch paths only engage where they win
  (≥768-bit moduli, enough work to amortize the shared window table), so
  every workload here must hold a ≥1.0× speedup gate (scalars get a 0.9×
  noise floor since both sides run literally the same code);
* **gmpy2 is a free upgrade** — when the library imports, auto-selection
  picks it and big-modulus exponentiation speeds up ≥3×; the gate arms
  only on hosts that have it (this container does not, so the column
  records ``null`` and the gate stays cold rather than silently passing).

Results persist to ``BENCH_backends.json`` at the repo root with a bounded
history, like the precompute and federation panels.  ``REPRO_FAST=1`` shrinks
the workloads.
"""

from __future__ import annotations

import json
import platform
import random
import time
from pathlib import Path

from repro.mathutils.backends import available_backends, gmpy2_available, use_backend
from repro.mathutils.modular import (
    batch_inverse,
    modexp,
    modexp_many,
    multiexp_mod,
)

from _common import fast_mode, host_cores, print_table

OUT = Path(__file__).resolve().parent.parent / "BENCH_backends.json"

HISTORY_LIMIT = 20

#: A 2048-bit odd modulus: the SH00/RSA regime where the fused windowed
#: paths are live (well above FUSE_MIN_BITS).
MODULUS = (2**2048 - 1942289) | 1

#: Fused paths must beat the reference outright; scalar delegation runs
#: the identical code, so it only gets a measurement-noise floor.
FUSED_GATE = 1.0
SCALAR_FLOOR = 0.9
GMPY2_GATE = 3.0


def _best_of(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _workloads(scale: int):
    """(name, kind, thunk) triples; ``kind`` picks the speedup gate."""
    rng = random.Random(0xBACC)
    base = rng.randrange(2, MODULUS)
    exponent = rng.randrange(MODULUS)
    exponents = [rng.randrange(MODULUS) for _ in range(8 * scale)]
    pairs = [
        (rng.randrange(2, MODULUS), rng.randrange(MODULUS))
        for _ in range(3 * scale)
    ]
    values = [rng.randrange(2, MODULUS) for _ in range(32 * scale)]
    return [
        (
            f"modexp_many x{len(exponents)}",
            "fused",
            lambda: modexp_many(base, exponents, MODULUS),
        ),
        (
            f"multiexp x{len(pairs)}",
            "fused",
            lambda: multiexp_mod(pairs, MODULUS),
        ),
        (
            f"batch_inverse x{len(values)}",
            "scalar",
            lambda: batch_inverse(values, MODULUS),
        ),
        (
            "modexp scalar",
            "scalar",
            lambda: modexp(base, exponent, MODULUS),
        ),
    ]


def _scheme_workloads():
    """Full sign+verify+combine flows, one per modulus regime.

    SH00 runs in the 2048-bit RSA regime where the fused multiexp paths
    are live (combine and share verification); BLS04 runs entirely on
    256-bit curve arithmetic, below every fuse threshold, so it pins the
    delegation-parity claim on a real scheme.  Both are gated as
    ``scalar`` — the flows mix fused and scalar work, so the honest gate
    is "never a regression", not a fixed fused win.
    """
    from repro.schemes import bls04, generate_keys, sh00

    km_sh00 = generate_keys("sh00", 1, 4, rsa_bits=2048)
    sh00_scheme = sh00.Sh00SignatureScheme()
    km_bls04 = generate_keys("bls04", 1, 4)
    bls04_scheme = bls04.Bls04SignatureScheme()
    message = b"backend scheme panel"

    def sh00_op():
        shares = [sh00_scheme.partial_sign(km_sh00.share_for(i), message) for i in (1, 2)]
        for share in shares:
            sh00_scheme.verify_signature_share(km_sh00.public_key, message, share)
        signature = sh00_scheme.combine(km_sh00.public_key, message, shares)
        sh00_scheme.verify(km_sh00.public_key, message, signature)

    def bls04_op():
        shares = [bls04_scheme.partial_sign(km_bls04.share_for(i), message) for i in (1, 2)]
        for share in shares:
            bls04_scheme.verify_signature_share(km_bls04.public_key, message, share)
        signature = bls04_scheme.combine(km_bls04.public_key, message, shares)
        bls04_scheme.verify(km_bls04.public_key, message, signature)

    return [
        ("sh00 sign 2048b", "scalar", sh00_op),
        ("bls04 sign bn254", "scalar", bls04_op),
    ]


def _load_history() -> list[dict]:
    if not OUT.exists():
        return []
    try:
        prior = json.loads(OUT.read_text())
    except (OSError, ValueError):
        return []
    history = list(prior.get("history", []))
    if "panels" in prior:
        history.append(
            {
                "timestamp": prior.get("timestamp"),
                "host": prior.get("host"),
                "speedups": {
                    panel["workload"]: panel["speedups"]
                    for panel in prior.get("panels", [])
                },
            }
        )
    return history[-HISTORY_LIMIT:]


def test_backend_speedups(benchmark):
    """Pure-reference vs batched (vs gmpy2 when importable), gated."""
    scale = 1 if fast_mode() else 2
    rounds = 2 if fast_mode() else 3
    backends = [name for name in available_backends() if name != "auto"]
    panels = []

    def run():
        panels.clear()
        for name, kind, thunk in _workloads(scale) + _scheme_workloads():
            timings = {}
            for backend in backends:
                with use_backend(backend):
                    thunk()  # one untimed warm-up (window tables, caches)
                    timings[backend] = _best_of(thunk, rounds)
            reference = timings["python"]
            panels.append(
                {
                    "workload": name,
                    "kind": kind,
                    "timings": timings,
                    "ops_per_sec": {
                        backend: (1.0 / took if took else 0.0)
                        for backend, took in timings.items()
                    },
                    "speedups": {
                        backend: (reference / took if took else 0.0)
                        for backend, took in timings.items()
                        if backend != "python"
                    },
                }
            )

    benchmark.pedantic(run, rounds=1, iterations=1)

    print_table(
        f"Math backends: 2048-bit primitives + scheme flows ({host_cores()} "
        f"cores, gmpy2 {'present' if gmpy2_available() else 'absent'})",
        ["workload", "kind"]
        + [f"{b} (ms)" for b in backends]
        + [f"{b} speedup" for b in backends if b != "python"],
        [
            [
                panel["workload"],
                panel["kind"],
                *(f"{panel['timings'][b] * 1000:.2f}" for b in backends),
                *(
                    f"{panel['speedups'][b]:.2f}x"
                    for b in backends
                    if b != "python"
                ),
            ]
            for panel in panels
        ],
    )

    payload = {
        "benchmark": "math_backends",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": {
            "cores": host_cores(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "gmpy2": gmpy2_available(),
            "fast_mode": fast_mode(),
        },
        "modulus_bits": MODULUS.bit_length(),
        "gates": {
            "fused": FUSED_GATE,
            "scalar_floor": SCALAR_FLOOR,
            "gmpy2": GMPY2_GATE if gmpy2_available() else None,
        },
        "panels": panels,
        "history": _load_history(),
    }
    OUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {OUT}")

    # -- gates ---------------------------------------------------------------
    for panel in panels:
        batched = panel["speedups"]["batched"]
        gate = FUSED_GATE if panel["kind"] == "fused" else SCALAR_FLOOR
        assert batched >= gate, (
            f"{panel['workload']}: batched speedup {batched:.2f}x "
            f"below the {gate:.2f}x gate"
        )
    if gmpy2_available():
        exp_panels = [p for p in panels if p["kind"] == "fused"]
        best = max(p["speedups"]["gmpy2"] for p in exp_panels)
        assert best >= GMPY2_GATE, (
            f"gmpy2 best fused speedup {best:.2f}x below {GMPY2_GATE}x"
        )
