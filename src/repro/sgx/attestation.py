"""Remote and local attestation (Section II-A).

A quote proves to a remote verifier that a specific enclave (identified
by its measurement) runs on a genuine platform, and binds 64 bytes of
report data — conventionally the hash of a key-exchange message, which is
how attestation bootstraps a secure channel.

The model:

* each :class:`SgxPlatform` gets a :class:`QuotingEnclave` holding a
  platform attestation key (RSA here; EPID/DCAP in real SGX),
* an :class:`AttestationService` (the IAS/DCAP-cache analogue) knows the
  public keys of genuine platforms and verifies quotes,
* :func:`attested_key_exchange` runs the full dance: the enclave creates
  an ephemeral DH key, quotes its public value, and the verifier checks
  the quote before completing the exchange.  The CA uses this to provision
  server certificates; replicas use the mutual variant to transfer SK_r.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass

from repro.crypto import dh, rsa
from repro.crypto.kdf import derive_key
from repro.errors import AttestationError
from repro.sgx.enclave import Enclave, SgxPlatform
from repro.util.serialization import Reader, Writer


@dataclass(frozen=True)
class Quote:
    """An attestation quote: (platform, measurement, signer, report data)."""

    platform_id: str
    measurement: bytes
    signer_id: bytes
    report_data: bytes
    signature: bytes

    def tbs_bytes(self) -> bytes:
        return (
            Writer()
            .str(self.platform_id)
            .bytes(self.measurement)
            .bytes(self.signer_id)
            .bytes(self.report_data)
            .take()
        )

    def serialize(self) -> bytes:
        return Writer().bytes(self.tbs_bytes()).bytes(self.signature).take()

    @classmethod
    def deserialize(cls, data: bytes) -> "Quote":
        outer = Reader(data)
        tbs = outer.bytes()
        signature = outer.bytes()
        outer.expect_end()
        r = Reader(tbs)
        platform_id = r.str()
        measurement = r.bytes()
        signer_id = r.bytes()
        report_data = r.bytes()
        r.expect_end()
        return cls(
            platform_id=platform_id,
            measurement=measurement,
            signer_id=signer_id,
            report_data=report_data,
            signature=signature,
        )


class QuotingEnclave:
    """Per-platform quote signer (the QE of real SGX).

    Only code on the same platform can obtain quotes, and only for
    enclaves actually loaded there — the model enforces this by requiring
    the :class:`Enclave` object itself, which the untrusted host does not
    hold.
    """

    def __init__(self, platform: SgxPlatform) -> None:
        self._platform = platform
        self._key = rsa.generate_keypair(1024)

    @property
    def attestation_public_key(self) -> rsa.RsaPublicKey:
        return self._key.public_key

    def quote(self, enclave: Enclave, report_data: bytes) -> Quote:
        if enclave.platform is not self._platform:
            raise AttestationError("enclave is not loaded on this platform")
        unsigned = Quote(
            platform_id=self._platform.platform_id,
            measurement=enclave.measurement(),
            signer_id=enclave.signer_id(),
            report_data=report_data,
            signature=b"",
        )
        signature = rsa.sign(self._key, unsigned.tbs_bytes())
        return Quote(
            platform_id=unsigned.platform_id,
            measurement=unsigned.measurement,
            signer_id=unsigned.signer_id,
            report_data=unsigned.report_data,
            signature=signature,
        )


class AttestationService:
    """Verifies quotes against a registry of genuine platforms (IAS analogue)."""

    def __init__(self) -> None:
        self._platforms: dict[str, rsa.RsaPublicKey] = {}

    def register_platform(self, platform_id: str, public_key: rsa.RsaPublicKey) -> None:
        """Record a genuine platform's attestation public key."""
        self._platforms[platform_id] = public_key

    def verify(self, quote: Quote, expected_measurement: bytes | None = None) -> None:
        """Verify a quote; optionally pin the expected measurement."""
        public_key = self._platforms.get(quote.platform_id)
        if public_key is None:
            raise AttestationError(f"unknown platform {quote.platform_id!r}")
        if not rsa.verify(public_key, quote.tbs_bytes(), quote.signature):
            raise AttestationError("quote signature is invalid")
        if expected_measurement is not None and quote.measurement != expected_measurement:
            raise AttestationError(
                "measurement mismatch: enclave is not the expected build"
            )


def bind_public_value(public_value: bytes) -> bytes:
    """Report data binding a DH public value into a quote."""
    return hashlib.sha256(b"repro.attest.dh\x00" + public_value).digest()


@dataclass
class AttestedSession:
    """Result of an attested key exchange: a shared secret and the quote."""

    shared_key: bytes
    quote: Quote


def enclave_key_exchange_offer(
    enclave: Enclave, quoting_enclave: QuotingEnclave
) -> tuple[dh.DhKeyPair, Quote]:
    """Enclave side, step 1: ephemeral DH key + quote over its public value."""
    keypair = dh.generate_keypair()
    quote = quoting_enclave.quote(enclave, bind_public_value(keypair.public_bytes()))
    return keypair, quote


def verifier_key_exchange(
    service: AttestationService,
    quote: Quote,
    enclave_public: bytes,
    expected_measurement: bytes | None = None,
) -> tuple[bytes, bytes]:
    """Verifier side: check the quote, return (own_public, shared_key).

    Raises :class:`AttestationError` if the quote does not verify or does
    not bind ``enclave_public``.
    """
    service.verify(quote, expected_measurement)
    if not hmac.compare_digest(quote.report_data, bind_public_value(enclave_public)):
        raise AttestationError("quote does not bind the offered public value")
    keypair = dh.generate_keypair()
    secret = dh.shared_secret(keypair, enclave_public)
    shared_key = derive_key(secret, "sgx/attested-channel", length=16)
    return keypair.public_bytes(), shared_key


def enclave_key_exchange_finish(keypair: dh.DhKeyPair, verifier_public: bytes) -> bytes:
    """Enclave side, step 2: complete the exchange with the verifier's value."""
    secret = dh.shared_secret(keypair, verifier_public)
    return derive_key(secret, "sgx/attested-channel", length=16)
