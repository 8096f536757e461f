"""The two scalar primitives ``benchmarks/thetabench/layers.py`` times by
this name (its ``mathutils.modexp_256_us`` and ``inverse_256_us`` rows).

Nothing in the library calls them: big-integer arithmetic is CPython's
``pow`` throughout (:mod:`repro.mathutils.modular`).  The module goes when
the benchmark stops importing it.
"""


def modexp(base: int, exponent: int, modulus: int) -> int:
    """``base ** exponent mod modulus`` (negative exponents invert)."""
    return pow(base, exponent, modulus)


def modinv(value: int, modulus: int) -> int:
    """Modular inverse; raises ``ValueError`` when gcd != 1 (like ``pow``)."""
    return pow(value, -1, modulus)
