#!/usr/bin/env python3
"""Quickstart: stand up SeGShare, share a file with a group, revoke access.

Runs entirely in-process: the "cloud" is a simulated SGX platform, the
"network" a calibrated Azure WAN model, and all crypto is real.

    python examples/quickstart.py
"""

from repro.core import deploy
from repro.core.enclave_app import SeGShareOptions
from repro.core.model import default_group
from repro.errors import AccessDenied


def main() -> None:
    # One call wires the whole world: CA, attestation service, SGX
    # platform, SeGShare enclave, and the certificate provisioning of the
    # paper's setup phase.
    deployment = deploy(options=SeGShareOptions(enable_dedup=True))
    print(f"enclave measurement: {deployment.server.enclave.measurement().hex()[:16]}…")
    print(f"server certificate subject: {deployment.server_certificate.subject.rfc4514_string()}")

    # Users authenticate with CA-issued client certificates.
    alice = deployment.new_user("alice")
    bob = deployment.new_user("bob")

    # Alice builds a small tree and uploads a file.
    alice.mkdir("/reports/")
    alice.upload("/reports/q3.txt", b"Q3 revenue: confidential numbers")
    print("alice uploaded /reports/q3.txt")

    # Bob is not authorized yet.
    try:
        bob.download("/reports/q3.txt")
    except AccessDenied:
        print("bob is denied before sharing - as expected")

    # Alice shares with the 'finance' group (created on first use) and
    # with bob individually via his default group.
    alice.add_user("bob", "finance")
    alice.set_permission("/reports/q3.txt", "finance", "r")
    print("bob (via finance) reads:", bob.download("/reports/q3.txt").decode())

    alice.set_permission("/reports/q3.txt", default_group("bob"), "rw")
    bob.upload("/reports/q3.txt", b"Q3 revenue: reviewed by bob")
    print("bob updated the file")

    # Immediate revocation: one small metadata update, no re-encryption.
    alice.remove_user("bob", "finance")
    alice.set_permission("/reports/q3.txt", default_group("bob"), "")
    try:
        bob.download("/reports/q3.txt")
    except AccessDenied:
        print("bob is denied immediately after revocation")

    print("alice's groups:", alice.my_groups())
    print(f"virtual time elapsed: {deployment.env.clock.now():.3f}s")


if __name__ == "__main__":
    main()
