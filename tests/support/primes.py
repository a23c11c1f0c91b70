"""Miller–Rabin primality test: the check on OpenSSL's RSA factors.

``repro.crypto.rsa`` generates keys on OpenSSL; ``tests/crypto/test_rsa.py``
holds the primes it returns to this independent test.  A number handed to
:func:`is_probable_prime` may be chosen adversarially, so it gets the
worst-case bound: 40 random bases, error at most 4^-40 = 2^-80.  It is
test code: nothing under ``src/`` imports it.
"""

from __future__ import annotations

import math
import secrets

_SMALL_PRIMES = frozenset(n for n in range(2, 2000) if all(n % d for d in range(2, math.isqrt(n) + 1)))
# One gcd against the product of the primes below 2000 finds any small
# factor; a candidate with none would otherwise pay all 303 divisions.
_PRIMORIAL = math.prod(_SMALL_PRIMES)

_WORST_CASE_ROUNDS = 40


def is_probable_prime(n: int, rounds: int = _WORST_CASE_ROUNDS) -> bool:
    """Return True if ``n`` has no small factor and passes Miller–Rabin."""
    if n < 2:
        return False
    if math.gcd(n, _PRIMORIAL) != 1:
        return n in _SMALL_PRIMES  # a small prime itself, or a multiple of one
    # Write n-1 = d * 2^r with d odd.
    r = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> r
    for _ in range(rounds):
        a = secrets.randbelow(n - 3) + 2
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True
