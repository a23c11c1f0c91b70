"""Probabilistic primality testing and prime generation for RSA keygen.

Two error bounds back the two Miller–Rabin round counts.  A number handed
to :func:`is_probable_prime` may be chosen adversarially and gets the
worst-case bound: 40 random bases, error at most 4^-40 = 2^-80.  The
candidates :func:`generate_prime` draws are uniformly random, so the
Damgård–Landrock–Pomerance average-case bound applies: 12 rounds leave
an error below 2^-80 at every size from 256 bits up.
"""

from __future__ import annotations

import math
import secrets

_SMALL_PRIMES = frozenset(n for n in range(2, 2000) if all(n % d for d in range(2, math.isqrt(n) + 1)))
# One gcd against the product of the primes below 2000 finds any small
# factor; a candidate with none would otherwise pay all 303 divisions.
_PRIMORIAL = math.prod(_SMALL_PRIMES)

_WORST_CASE_ROUNDS = 40
# Damgård, Landrock, Pomerance 1993 (Handbook of Applied Cryptography,
# Fact 4.48(ii)): a uniformly random odd k-bit number that passes t rounds
# (3 <= t <= k/9, k >= 21) is composite with probability
# p(k,t) < k^1.5 * 2^t * t^-0.5 * 4^(2 - sqrt(t*k)), which for t = 12 is
# 2^-84.6 at k = 256, 2^-129 at k = 512 and smaller for every larger k.
# Drawing only from the top quarter of the k-bit range, as generate_prime
# does, costs at most a factor 4 (2^-82.6 at k = 256); discarding
# candidates with a small factor first only removes composites.  Below
# 256 bits the bound falls short of 2^-80 and the worst-case count stays.
_AVERAGE_CASE_ROUNDS = 12


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


def generate_prime(bits: int) -> int:
    """Generate a random prime with exactly ``bits`` bits."""
    if bits < 8:
        raise ValueError("prime size too small")
    rounds = _AVERAGE_CASE_ROUNDS if bits >= 256 else _WORST_CASE_ROUNDS
    while True:
        # Force the top two bits so the product of two primes has 2*bits
        # bits, and the bottom bit so the candidate is odd.
        candidate = secrets.randbits(bits) | (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        if is_probable_prime(candidate, rounds):
            return candidate
