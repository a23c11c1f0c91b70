"""The persistent CLI deployment, driven in-process."""

from pathlib import Path

import pytest
from cryptography import x509

from repro.cli import ShareState, main, open_share


@pytest.fixture()
def share(tmp_path):
    root = str(tmp_path / "share")
    assert main(["-s", root, "init", "--dedup", "--audit", "--rollback", "whole_fs"]) == 0
    assert main(["-s", root, "adduser", "alice"]) == 0
    assert main(["-s", root, "adduser", "bob"]) == 0
    return root


def run(share, *args):
    return main(["-s", share, *args])


class TestLifecycle:
    def test_put_get_round_trip(self, share, tmp_path, capsys):
        local = tmp_path / "in.txt"
        local.write_bytes(b"cli payload")
        out = tmp_path / "out.txt"
        assert run(share, "put", "alice", str(local), "/f.txt") == 0
        assert run(share, "get", "alice", "/f.txt", str(out)) == 0
        assert out.read_bytes() == b"cli payload"

    def test_state_survives_processes(self, share, tmp_path, capsys):
        """Every main() call builds a fresh World — a process restart."""
        local = tmp_path / "in.txt"
        local.write_bytes(b"persisted")
        run(share, "put", "alice", str(local), "/p.txt")
        run(share, "mkdir", "alice", "/d/")
        capsys.readouterr()
        assert run(share, "ls", "alice", "/") == 0
        listing = capsys.readouterr().out
        assert "/p.txt" in listing and "/d/" in listing

    def test_sharing_and_revocation(self, share, tmp_path, capsys):
        local = tmp_path / "in.txt"
        local.write_bytes(b"team doc")
        run(share, "put", "alice", str(local), "/doc")
        assert run(share, "get", "bob", "/doc") == 1  # denied
        assert run(share, "groupadd", "alice", "bob", "team") == 0
        assert run(share, "share", "alice", "/doc", "team", "r") == 0
        capsys.readouterr()
        assert run(share, "get", "bob", "/doc") == 0
        assert capsys.readouterr().out == "team doc"
        assert run(share, "groupdel", "alice", "bob", "team") == 0
        assert run(share, "get", "bob", "/doc") == 1

    def test_groups_listing(self, share, capsys):
        run(share, "groupadd", "alice", "alice", "eng")
        capsys.readouterr()
        assert run(share, "groups", "alice") == 0
        assert "eng" in capsys.readouterr().out

    def test_audit_trail(self, share, tmp_path, capsys):
        local = tmp_path / "in.txt"
        local.write_bytes(b"x")
        run(share, "put", "alice", str(local), "/f")
        run(share, "get", "bob", "/f")
        capsys.readouterr()
        assert run(share, "audit") == 0
        log = capsys.readouterr().out
        assert "PUT_FILE" in log
        assert "denied" in log

    def test_mv_and_rm(self, share, tmp_path, capsys):
        local = tmp_path / "in.txt"
        local.write_bytes(b"x")
        run(share, "put", "alice", str(local), "/a")
        assert run(share, "mv", "alice", "/a", "/b") == 0
        assert run(share, "rm", "alice", "/b") == 0
        assert run(share, "get", "alice", "/b") == 1

    def test_every_certificate_has_its_own_serial(self, share):
        """Each main() call re-opens the CA; it resumes at the serial the
        last one left off at, so the server's and the users' differ."""
        der = [Path(share, "users", f"{user}.cert").read_bytes() for user in ("alice", "bob")]
        der.append(open_share(ShareState(share)).server.enclave.tls._identity.certificate)
        serials = [x509.load_der_x509_certificate(blob).serial_number for blob in der]
        assert len(set(serials)) == 3

    def test_info(self, share, capsys):
        assert run(share, "info") == 0
        assert "whole_fs" in capsys.readouterr().out


class TestErrors:
    def test_unknown_user(self, share, tmp_path):
        with pytest.raises(SystemExit):
            run(share, "get", "nobody", "/f")

    def test_double_init(self, share):
        with pytest.raises(SystemExit):
            run(share, "init")

    def test_uninitialized_share(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["-s", str(tmp_path / "missing"), "ls", "alice", "/"])

    def test_duplicate_user(self, share):
        with pytest.raises(SystemExit):
            run(share, "adduser", "alice")
