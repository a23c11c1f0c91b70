"""Path rules of the paper's file system model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import PathError
from repro.fsmodel import ROOT, is_dir_path, parent, validate_path


# Path helpers the enclave has no use for, kept here to state the rules
# Section II-C implies (names, joining, the ancestor chain) as tests.


def name_of(path: str) -> str:
    """The final name component (directory name or filename)."""
    validate_path(path)
    if path == ROOT:
        return "/"
    trimmed = path[:-1] if path.endswith("/") else path
    return trimmed[trimmed.rfind("/") + 1 :]


def join(directory: str, name: str, is_dir: bool = False) -> str:
    """Append ``name`` to directory path ``directory``."""
    if not is_dir_path(directory):
        raise PathError(f"{directory!r} is not a directory path")
    if "/" in name or not name:
        raise PathError(f"invalid name {name!r}")
    result = directory + name + ("/" if is_dir else "")
    validate_path(result)
    return result


def ancestors(path: str) -> list[str]:
    """All ancestor directories, root first, built by repeated ``parent``."""
    chain = []
    while path != ROOT:
        path = parent(path)
        chain.append(path)
    return chain[::-1]


class TestValidation:
    @pytest.mark.parametrize(
        "path", ["/", "/f", "/D/", "/D/f", "/D/E/", "/D/E/f.txt", "/a b/c"]
    )
    def test_valid(self, path):
        validate_path(path)

    @pytest.mark.parametrize(
        "path", ["", "f", "D/", "//", "/D//f", "/D/\x00/", "relative/p"]
    )
    def test_invalid(self, path):
        with pytest.raises(PathError):
            validate_path(path)


class TestDirSyntax:
    def test_dir_paths_end_with_slash(self):
        assert is_dir_path("/")
        assert is_dir_path("/D/")
        assert not is_dir_path("/D/f")


class TestParent:
    @pytest.mark.parametrize(
        "path,expected",
        [("/f", "/"), ("/D/", "/"), ("/D/f", "/D/"), ("/D/E/", "/D/"), ("/D/E/f", "/D/E/")],
    )
    def test_parent(self, path, expected):
        assert parent(path) == expected

    def test_root_has_no_parent(self):
        with pytest.raises(PathError):
            parent(ROOT)


class TestNameAndJoin:
    def test_name_of(self):
        assert name_of("/D/f.txt") == "f.txt"
        assert name_of("/D/E/") == "E"
        assert name_of("/") == "/"

    def test_join_file(self):
        assert join("/D/", "f") == "/D/f"

    def test_join_dir(self):
        assert join("/", "E", is_dir=True) == "/E/"

    def test_join_rejects_bad_name(self):
        with pytest.raises(PathError):
            join("/D/", "a/b")
        with pytest.raises(PathError):
            join("/D/", "")

    def test_join_rejects_file_base(self):
        with pytest.raises(PathError):
            join("/D", "f")


class TestAncestors:
    def test_chain(self):
        assert ancestors("/D/E/f") == ["/", "/D/", "/D/E/"]

    def test_root(self):
        assert ancestors("/") == []

    def test_top_level(self):
        assert ancestors("/f") == ["/"]

    def test_dir_excludes_itself(self):
        assert ancestors("/D/E/") == ["/", "/D/"]


_name = st.text(
    alphabet=st.characters(blacklist_characters="/\x00", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=10,
)


@given(st.lists(_name, min_size=1, max_size=5), st.booleans())
def test_parent_inverts_join(names, is_dir):
    path = "/"
    for name in names[:-1]:
        path = join(path, name, is_dir=True)
    full = join(path, names[-1], is_dir=is_dir)
    assert parent(full) == path
    assert name_of(full) == names[-1]
    assert ancestors(full)[-1] == path if path != "/" else True
