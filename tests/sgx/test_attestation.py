"""Quotes, the attestation service, and attested key exchanges."""

import pytest

from repro.errors import AttestationError, CryptoError
from repro.sgx import AttestationService, QuotingEnclave
from repro.sgx.attestation import (
    Quote,
    bind_public_value,
    enclave_key_exchange_finish,
    enclave_key_exchange_offer,
    verifier_key_exchange,
)
from repro.sgx.enclave import Enclave, ecall
from tests.support.platform import sim_platform
from tests.support.rsa_ref import REFUSED_PUBLIC_KEYS


class AppEnclave(Enclave):
    @ecall
    def noop(self) -> None:
        pass


class OtherEnclave(Enclave):
    @ecall
    def other(self) -> None:
        pass


@pytest.fixture()
def world():
    platform = sim_platform()
    enclave = AppEnclave()
    platform.load(enclave)
    qe = QuotingEnclave(platform)
    service = AttestationService()
    service.register_platform(platform.platform_id, qe.attestation_public_key)
    return platform, enclave, qe, service


class TestQuotes:
    def test_valid_quote_verifies(self, world):
        platform, enclave, qe, service = world
        quote = qe.quote(enclave, b"report data")
        service.verify(quote)
        service.verify(quote, expected_measurement=enclave.measurement())

    def test_quote_round_trips_serialization(self, world):
        _, enclave, qe, service = world
        quote = qe.quote(enclave, b"rd")
        assert Quote.deserialize(quote.serialize()) == quote

    def test_unknown_platform_rejected(self, world):
        _, enclave, qe, _ = world
        quote = qe.quote(enclave, b"rd")
        fresh_service = AttestationService()
        with pytest.raises(AttestationError):
            fresh_service.verify(quote)

    def test_wrong_measurement_rejected(self, world):
        _, enclave, qe, service = world
        quote = qe.quote(enclave, b"rd")
        with pytest.raises(AttestationError):
            service.verify(quote, expected_measurement=OtherEnclave().measurement())

    def test_tampered_report_data_rejected(self, world):
        _, enclave, qe, service = world
        quote = qe.quote(enclave, b"rd")
        forged = Quote(
            platform_id=quote.platform_id,
            measurement=quote.measurement,
            signer_id=quote.signer_id,
            report_data=b"forged",
            signature=quote.signature,
        )
        with pytest.raises(AttestationError):
            service.verify(forged)

    @pytest.mark.parametrize("refuse", REFUSED_PUBLIC_KEYS.values(), ids=REFUSED_PUBLIC_KEYS.keys())
    def test_platform_key_openssl_refuses_is_an_attestation_error(self, world, refuse):
        platform, enclave, qe, service = world
        service.register_platform(platform.platform_id, refuse(qe.attestation_public_key))
        with pytest.raises(AttestationError, match="signature"):
            service.verify(qe.quote(enclave, b"rd"))

    def test_foreign_enclave_cannot_be_quoted(self, world):
        _, _, qe, _ = world
        foreign = AppEnclave()
        sim_platform().load(foreign)
        with pytest.raises(AttestationError):
            qe.quote(foreign, b"rd")


class TestAttestedKeyExchange:
    def test_both_sides_derive_same_key(self, world):
        _, enclave, qe, service = world
        keypair, quote = enclave_key_exchange_offer(enclave, qe)
        verifier_public, verifier_key = verifier_key_exchange(
            service, quote, keypair.public_bytes(), enclave.measurement()
        )
        enclave_key = enclave_key_exchange_finish(keypair, verifier_public)
        assert verifier_key == enclave_key
        assert len(verifier_key) == 16

    def test_substituted_public_value_rejected(self, world):
        _, enclave, qe, service = world
        keypair, quote = enclave_key_exchange_offer(enclave, qe)
        other_keypair, _ = enclave_key_exchange_offer(enclave, qe)
        with pytest.raises(AttestationError):
            verifier_key_exchange(service, quote, other_keypair.public_bytes())

    @pytest.mark.parametrize(
        "reshape",
        [lambda v: b"\x00" + v, lambda v: v[1:], lambda v: b"\x05"],
        ids=["zero-padded", "truncated", "one-byte"],
    )
    def test_wrong_width_public_value_is_a_typed_error(self, world, reshape):
        """A DH value in any but the fixed-width encoding is refused on both
        sides of the join — even when a genuine quote binds it."""
        _, enclave, qe, service = world
        keypair, _ = enclave_key_exchange_offer(enclave, qe)
        bad = reshape(keypair.public_bytes())
        quote = qe.quote(enclave, bind_public_value(bad))
        with pytest.raises(CryptoError, match="DH public value"):
            verifier_key_exchange(service, quote, bad, enclave.measurement())
        with pytest.raises(CryptoError, match="DH public value"):
            enclave_key_exchange_finish(keypair, bad)

    def test_bind_public_value_is_injective_in_practice(self):
        assert bind_public_value(b"a") != bind_public_value(b"b")
