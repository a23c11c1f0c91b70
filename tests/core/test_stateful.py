"""Model-based stateful testing of the request handler.

Hypothesis drives random operation sequences (with deduplication AND
rollback protection enabled, so every write exercises the guards) against
a plain-dict reference model; after every step the system must agree with
the model on content, listings, and authorization decisions.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.requests import Status
from repro.errors import AccessDenied, RequestError
from repro.tls.channel import StreamingResponse
from tests.core.conftest import build_world
from tests.support.dedup import object_count

OWNER = "owner"
OTHER = "other"
GROUP = "team"

_names = st.sampled_from(["a", "b", "c", "d"])
_content = st.binary(max_size=200)


class SeGShareMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self) -> None:
        world = build_world(enable_dedup=True, rollback=True, buckets=4)
        self.handler = world.handler
        self.manager = world.manager
        # Reference model.
        self.files: dict[str, bytes] = {}
        self.dirs: set[str] = {"/"}
        self.shared: set[str] = set()  # paths readable by OTHER via GROUP
        self.member = False  # is OTHER in GROUP?
        self.handler.add_user(OWNER, OTHER, GROUP)
        self.handler.remove_user(OWNER, OTHER, GROUP)

    # -- helpers --------------------------------------------------------------

    def _existing_dir(self, name: str) -> str:
        candidates = sorted(self.dirs)
        return candidates[hash(name) % len(candidates)]

    # -- mutating rules ----------------------------------------------------------

    @rule(name=_names)
    def make_dir(self, name: str) -> None:
        parent = self._existing_dir(name)
        path = parent + name + "/"
        collision = path in self.dirs or path[:-1] in self.files
        try:
            response = self.handler.put_dir(OWNER, path)
        except RequestError:
            assert collision
            return
        if collision:
            assert response.status is not Status.OK
        else:
            assert response.status is Status.OK
            self.dirs.add(path)

    @rule(name=_names, content=_content)
    def put_file(self, name: str, content: bytes) -> None:
        parent = self._existing_dir(name)
        path = parent + name
        if path + "/" in self.dirs:
            response = self.handler.put_file(OWNER, path, content)
            assert response.status is Status.ERROR  # name taken by a directory
            return
        response = self.handler.put_file(OWNER, path, content)
        assert response.status is Status.OK, response
        self.files[path] = content

    @rule(name=_names)
    def remove_file(self, name: str) -> None:
        parent = self._existing_dir(name)
        path = parent + name
        if path in self.files:
            assert self.handler.remove(OWNER, path).status is Status.OK
            del self.files[path]
            self.shared.discard(path)

    @rule(name=_names)
    def share_with_group(self, name: str) -> None:
        parent = self._existing_dir(name)
        path = parent + name
        if path in self.files:
            self.handler.set_permission(OWNER, path, GROUP, "r")
            self.shared.add(path)

    @rule(name=_names)
    def unshare(self, name: str) -> None:
        parent = self._existing_dir(name)
        path = parent + name
        if path in self.files:
            self.handler.set_permission(OWNER, path, GROUP, "")
            self.shared.discard(path)

    @rule()
    def toggle_membership(self) -> None:
        if self.member:
            self.handler.remove_user(OWNER, OTHER, GROUP)
        else:
            self.handler.add_user(OWNER, OTHER, GROUP)
        self.member = not self.member

    @rule(name=_names, new=_names)
    def move_file(self, name: str, new: str) -> None:
        src = self._existing_dir(name) + name
        dst = self._existing_dir(new) + new + "-moved"
        if src in self.files and dst not in self.files and dst + "/" not in self.dirs:
            response = self.handler.move(OWNER, src, dst)
            assert response.status is Status.OK, response
            self.files[dst] = self.files.pop(src)
            if src in self.shared:
                self.shared.discard(src)
                self.shared.add(dst)

    # -- checking rules -------------------------------------------------------------

    @rule(name=_names)
    def check_download(self, name: str) -> None:
        parent = self._existing_dir(name)
        path = parent + name
        if path in self.files:
            result = self.handler.get(OWNER, path)
            assert isinstance(result, StreamingResponse)
            assert b"".join(result.chunks) == self.files[path]

    @rule(name=_names)
    def check_other_user_access(self, name: str) -> None:
        parent = self._existing_dir(name)
        path = parent + name
        if path not in self.files:
            return
        allowed = self.member and path in self.shared
        try:
            result = self.handler.get(OTHER, path)
            assert allowed, f"{OTHER} read {path} without authorization"
            assert b"".join(result.chunks) == self.files[path]
        except AccessDenied:
            assert not allowed, f"{OTHER} wrongly denied on {path}"

    # -- invariants -----------------------------------------------------------------

    @invariant()
    def listings_match_model(self) -> None:
        for directory in self.dirs:
            listed = set(self.manager.read_dir(directory).children)
            expected = {d for d in self.dirs if d != directory and d.startswith(directory)
                        and "/" not in d[len(directory):-1]}
            expected |= {f for f in self.files if f.startswith(directory)
                         and "/" not in f[len(directory):]}
            assert listed == expected, directory

    @invariant()
    def dedup_refcounts_consistent(self) -> None:
        # Every stored file resolves; the dedup store holds exactly the
        # distinct contents.
        distinct = {bytes(v) for v in self.files.values()}
        assert object_count(self.manager.dedup) == len(distinct)


SeGShareMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=25, deadline=None
)
TestSeGShareStateful = SeGShareMachine.TestCase


@pytest.mark.slow
def test_placeholder_for_collection() -> None:
    """Keeps this module visibly collected even when hypothesis is configured out."""
