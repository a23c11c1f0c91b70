"""Path rules of the paper's file system model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import PathError
from repro.fsmodel import ROOT, is_dir_path, parent, validate_path


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
    """A path is its parent's path plus one name; a name is whatever
    ``validate_path`` accepts as a single component."""

    def test_name_of(self):
        for path, name in (("/D/f.txt", "f.txt"), ("/D/E/", "E/"), ("/f", "f")):
            assert path[len(parent(path)) :] == name

    def test_join_file(self):
        validate_path("/D/" + "f")
        assert not is_dir_path("/D/" + "f")
        assert parent("/D/" + "f") == "/D/"

    def test_join_dir(self):
        validate_path("/" + "E" + "/")
        assert is_dir_path("/" + "E" + "/")
        assert parent("/E/") == ROOT

    def test_join_rejects_bad_name(self):
        # A "/" inside a name makes two components, an empty name none.
        assert parent("/D/" + "a/b") == "/D/a/"
        with pytest.raises(PathError):
            validate_path("/D/" + "" + "/")

    def test_join_rejects_file_base(self):
        # Only a directory path ends in "/", so only it can be a parent.
        assert not is_dir_path("/D")
        assert all(is_dir_path(parent(p)) for p in ("/D", "/D/f", "/D/E/"))


class TestAncestors:
    """The ancestor chain is ``parent`` applied until the root."""

    def test_chain(self):
        assert parent("/D/E/f") == "/D/E/"
        assert parent("/D/E/") == "/D/"
        assert parent("/D/") == ROOT

    def test_root(self):
        validate_path(ROOT)
        assert is_dir_path(ROOT)
        with pytest.raises(PathError):
            parent(ROOT)

    def test_top_level(self):
        assert parent("/f") == ROOT
        assert parent("/E/") == ROOT

    def test_dir_excludes_itself(self):
        for path in ("/D/", "/D/E/", "/a b/c/"):
            assert parent(path) != path
            assert path.startswith(parent(path))


_name = st.text(
    alphabet=st.characters(blacklist_characters="/\x00", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=10,
)


@given(st.lists(_name, min_size=1, max_size=5), st.booleans())
def test_parent_inverts_join(names, is_dir):
    path = ROOT
    for name in names[:-1]:
        path = path + name + "/"
    full = path + names[-1] + ("/" if is_dir else "")
    validate_path(full)
    assert is_dir_path(full) == is_dir
    assert parent(full) == path
    assert full[len(path) :].rstrip("/") == names[-1]
    # Walking up visits one ancestor per name and ends at the root.
    chain = [full]
    while chain[-1] != ROOT:
        chain.append(parent(chain[-1]))
    assert len(chain) == len(names) + 1
