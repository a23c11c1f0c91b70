"""Shared fixtures: the session key pool and deployment factories.

Public-key work was once what tier-1 spent its time on (RSA key
generation 173 s and DH 111 s of 348 s before docs/PERF.md §10).  On
OpenSSL a 1024-bit key costs about 15 ms and a key agreement under 1 ms
(docs/PERF.md §16); key generation is still served here from
:class:`tests.support.keypool.KeyPool`, because key *material* is never
what a test asserts on — identities come from certificates, and every
certificate still binds a distinct subject.  Tests of key generation
itself are marked ``fresh_keys`` and get the real function.
"""

from __future__ import annotations

import sys

import pytest

from repro.core.enclave_app import SeGShareOptions
from repro.core.server import Deployment, deploy
from repro.crypto import rsa
from repro.netsim import azure_wan_env
from repro.pki import CertificateAuthority
from tests.support.keypool import GENERATION_BUDGET, KeyPool, budget_error

_KEY_POOL = pytest.StashKey[KeyPool]()


def pytest_configure(config):
    """``rsa.generate_keypair`` is the pool's stand-in from before collection
    (ten test modules build a CA at import) until the session is over."""
    real = rsa.generate_keypair
    pool = config.stash[_KEY_POOL] = KeyPool(real)
    rsa.generate_keypair = pool.generate_keypair
    config.add_cleanup(lambda: setattr(rsa, "generate_keypair", real))


@pytest.fixture(scope="session")
def key_pool(request) -> KeyPool:
    return request.config.stash[_KEY_POOL]


@pytest.fixture(autouse=True)
def pooled_keys(request, key_pool):
    """Inside a test, keys come from the pool (unless it is ``fresh_keys``)."""
    if request.node.get_closest_marker("fresh_keys"):
        yield
    else:
        with key_pool.dealing():
            yield


def pytest_sessionfinish(session):
    """The deterministic half of the tier-1 wall budget: real generations."""
    pool = session.config.stash[_KEY_POOL]
    print(f"\nkey pool: {pool.generated} real RSA key generations (budget {GENERATION_BUDGET})")
    error = budget_error(pool)
    if error:
        print(f"ERROR: {error}", file=sys.stderr)
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


@pytest.fixture(scope="session")
def user_key(key_pool) -> rsa.RsaPrivateKey:
    """One RSA key shared by all test users; never a pooled one."""
    return key_pool.fresh(1024)


@pytest.fixture(scope="session")
def second_key(key_pool) -> rsa.RsaPrivateKey:
    """A second key, for tests that need two distinct key pairs."""
    return key_pool.fresh(1024)


@pytest.fixture()
def ca() -> CertificateAuthority:
    return CertificateAuthority(key_bits=1024)


@pytest.fixture()
def make_deployment(user_key):
    """Factory: a fresh deployment with optional SeGShare options."""

    def factory(options: SeGShareOptions | None = None, **kwargs) -> Deployment:
        deployment = deploy(env=azure_wan_env(), options=options, **kwargs)
        # Pre-seed the shared user key so new_user() never generates one.
        deployment._user_keys.setdefault("_default", user_key)
        original = deployment.new_user

        def new_user(user_id: str, key=None, key_bits: int = 1024):
            return original(user_id, key=key or user_key, key_bits=key_bits)

        deployment.new_user = new_user  # type: ignore[method-assign]
        return deployment

    return factory


@pytest.fixture()
def deployment(make_deployment) -> Deployment:
    """A default deployment (no extensions enabled)."""
    return make_deployment()
