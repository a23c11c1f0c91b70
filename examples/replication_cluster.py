#!/usr/bin/env python3
"""Replication: three enclaves on three platforms serve one share.

The paper's Section V-F: all enclaves read the same central repository,
and the root key SK_r travels from a serving enclave to each joining one
over a mutually attested channel that requires **identical measurements**
— only an enclave built for the same CA can join.  The cluster's
admission (``cluster.admit``) is the one join: attest, key transfer,
anchor catch-up, ring admission.

    python examples/replication_cluster.py
"""

from repro.cluster import ClusterDeployment
from repro.core.client import SeGShareClient
from repro.core.enclave_app import SeGShareOptions
from repro.core.server import provision_certificate
from repro.crypto import rsa
from repro.errors import MembershipError
from repro.netsim import SimClock
from repro.pki import CertificateAuthority
from repro.tls import TlsClient
from repro.tls.handshake import ClientIdentity


def connect(deployment, server, user, key) -> SeGShareClient:
    """Certify ``server`` (the setup phase) and open a TLS session to it."""
    provision_certificate(
        deployment.ca, deployment.attestation, server, server.enclave.measurement()
    )
    identity = ClientIdentity(
        certificate=deployment.ca.issue_client_certificate(user, key.public_key),
        private_key=key,
    )
    tls = TlsClient(
        server.endpoint().connect(), identity, deployment.ca.public_key, clock=server.env.clock
    )
    tls.handshake()
    return SeGShareClient(tls)


def main() -> None:
    # The paper's §V-F share: rollback protection off, no metadata cache.
    deployment = ClusterDeployment(SimClock(), CertificateAuthority(), SeGShareOptions())
    cluster = deployment.cluster

    # The first enclave finds an empty repository and generates SK_r; each
    # later one finds it keyed, starts keyless, and joins.
    for i in range(3):
        name = f"r{i}"
        server = deployment.servers[name] = deployment.new_server()
        keyless = not server.enclave.ready
        cluster.admit(name, server)
        print(
            f"{name} up on platform {server.platform.platform_id}: "
            f"{'joined via attested key transfer' if keyless else 'generated SK_r'} "
            f"(ready={server.enclave.ready})"
        )
        if not server.enclave.ready:
            raise SystemExit(f"UNEXPECTED: {name} is not ready after admission")

    # A rogue enclave with a DIFFERENT CA key (hence different
    # measurement) cannot obtain SK_r.
    rogue = deployment.new_server(ca=CertificateAuthority(name="rogue-ca"))
    try:
        cluster.admit("rogue", rogue)
        raise SystemExit("UNEXPECTED: rogue enclave obtained the root key")
    except MembershipError as exc:
        print(f"rogue enclave rejected: {type(exc).__name__}")

    # Writes through one server are readable through any other: same
    # repository, same root key.
    alice_key = rsa.generate_keypair(1024)
    connect(deployment, deployment.server("r0"), "alice", alice_key).upload(
        "/cluster.txt", b"written via the root enclave"
    )
    alice_on_replica = connect(deployment, deployment.server("r1"), "alice", alice_key)
    print("read via replica r1:", alice_on_replica.download("/cluster.txt").decode())


if __name__ == "__main__":
    main()
