"""A session-wide pool of RSA keys for tests that never look at them.

Tier-1 builds ~2 500 CAs, attestation services, enclaves and users, and
almost none of its tests asserts on key material: identities come from
certificates.  :class:`KeyPool` stands in for ``rsa.generate_keypair``
from before collection to the end of the session (``tests/conftest.py``
installs it) and answers in one of two ways:

* **inside a test** it deals keys from the pool, first to last, starting
  over at every test.  Any :data:`POOL_SIZE` consecutive calls in one
  test get distinct keys, so no world holds two principals with one key;
  the pool only ever grows to the most keys a single test asks for.
* **everywhere else** — test modules that build a CA at import, session-
  and module-scoped fixtures, which pytest sets up before any
  function-scoped one, and tests marked ``fresh_keys`` — it really
  generates, so a key that outlives one test is never dealt to another.

Every real generation is counted; :func:`budget_error` is the gate
``pytest_sessionfinish`` applies to the count.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from contextlib import contextmanager

from repro.crypto.rsa import RsaPrivateKey

#: Distinct keys any run of consecutive pooled calls is guaranteed.
POOL_SIZE = 32
#: Real generations one tier-1 run may perform (parent commit: 2 542).
GENERATION_BUDGET = 100


class KeyPool:
    def __init__(self, generate: Callable[[int], RsaPrivateKey]) -> None:
        self._generate = generate
        self._keys: dict[int, list[RsaPrivateKey]] = {}
        self._dealt: dict[int, int] | None = None
        self.generated = 0

    def fresh(self, bits: int = 2048) -> RsaPrivateKey:
        """A really generated key that no pooled call will ever return."""
        key = self._generate(bits)
        self.generated += 1
        return key

    def generate_keypair(self, bits: int = 2048) -> RsaPrivateKey:
        """The stand-in for ``rsa.generate_keypair``."""
        if self._dealt is None:
            return self.fresh(bits)
        keys = self._keys.setdefault(bits, [])
        index = self._dealt.get(bits, 0) % POOL_SIZE
        if index == len(keys):
            keys.append(self.fresh(bits))
        self._dealt[bits] = index + 1
        return keys[index]

    @contextmanager
    def dealing(self) -> Iterator[None]:
        """Deal pooled keys, from the first one, for the duration."""
        self._dealt = {}
        try:
            yield
        finally:
            self._dealt = None

    def pooled(self, bits: int) -> tuple[RsaPrivateKey, ...]:
        return tuple(self._keys.get(bits, ()))


def budget_error(pool: KeyPool) -> str | None:
    """Why this session's generation count fails the run, if it does."""
    if pool.generated <= GENERATION_BUDGET:
        return None
    return (
        f"{pool.generated} real RSA key generations in this session, over the "
        f"budget of {GENERATION_BUDGET}: a test or fixture is bypassing the key "
        "pool (tests/support/keypool.py)"
    )
