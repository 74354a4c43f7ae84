"""Unit tests for the in-memory filesystem."""

import pytest

from repro.errors import StorageError
from repro.storage import Filesystem, FsType
from repro.storage.filesystem import normalize


@pytest.fixture()
def fs():
    return Filesystem(FsType.EXT3, label="root")


def test_normalize_paths():
    assert normalize("boot/grub//menu.lst") == "/boot/grub/menu.lst"
    assert normalize("/a/./b/../c") == "/a/c"
    assert normalize("C:\\Program Files\\x".replace("C:", "")) == "/Program Files/x"
    assert normalize("/") == "/"


def test_write_read_roundtrip(fs):
    fs.write("/etc/motd", "hello")
    assert fs.read("etc/motd") == "hello"


def test_read_missing_raises(fs):
    with pytest.raises(StorageError):
        fs.read("/nope")


def test_overwrite(fs):
    fs.write("/f", "a")
    fs.write("/f", "b")
    assert fs.read("/f") == "b"


def test_exists_file_and_implicit_dir(fs):
    fs.write("/boot/grub/menu.lst", "x")
    assert fs.exists("/boot/grub/menu.lst")
    assert fs.isdir("/boot/grub")
    assert fs.isdir("/boot")
    assert not fs.exists("/boot/grub/other")


def test_delete(fs):
    fs.write("/f", "x")
    fs.delete("/f")
    assert not fs.exists("/f")
    with pytest.raises(StorageError):
        fs.delete("/f")


def test_rename_moves_and_overwrites(fs):
    """The v1 OS-switch primitive: rename pre-staged file over the live one."""
    fs.write("/controlmenu.lst", "old")
    fs.write("/controlmenu_to_windows.lst", "boot windows")
    fs.rename("/controlmenu_to_windows.lst", "/controlmenu.lst")
    assert fs.read("/controlmenu.lst") == "boot windows"
    assert not fs.exists("/controlmenu_to_windows.lst")


def test_rename_missing_raises(fs):
    with pytest.raises(StorageError):
        fs.rename("/nope", "/dst")


def test_copy(fs):
    fs.write("/a", "data")
    fs.copy("/a", "/b")
    assert fs.read("/b") == "data"
    assert fs.exists("/a")


def test_mkdir_makes_an_empty_directory(fs):
    fs.mkdir("/tftpboot/menu.lst")
    assert fs.isdir("/tftpboot/menu.lst")
    assert fs.exists("/tftpboot/menu.lst")
    assert not fs.isfile("/tftpboot/menu.lst")
    assert fs.file_count == 0


def test_files_make_their_parent_directories(fs):
    fs.write("/d/b.txt", "1")
    fs.write("/d/a.txt", "2")
    fs.write("/d/sub/c.txt", "3")
    assert fs.isdir("/d") and fs.isdir("/d/sub")
    assert not fs.isfile("/d")
    assert [fs.read(p) for p in ("/d/a.txt", "/d/b.txt", "/d/sub/c.txt")] == [
        "2", "1", "3",
    ]


def test_missing_path_is_neither_file_nor_directory(fs):
    assert not fs.exists("/missing")
    assert not fs.isdir("/missing")
    with pytest.raises(StorageError):
        fs.read("/missing")


def test_walk_sorted(fs):
    fs.write("/b", "2")
    fs.write("/a", "1")
    assert list(fs.walk()) == [("/a", "1"), ("/b", "2")]


def test_swap_rejects_file_operations():
    swap = Filesystem(FsType.SWAP)
    with pytest.raises(StorageError):
        swap.write("/x", "data")
    with pytest.raises(StorageError):
        swap.read("/x")


def test_copy_tree_from_full(fs):
    image = Filesystem(FsType.EXT3, label="image")
    image.write("/boot/vmlinuz", "kernel")
    image.write("/etc/fstab", "fstab")
    count = fs.copy_tree_from(image)
    assert count == 2
    assert fs.read("/boot/vmlinuz") == "kernel"


def test_copy_tree_from_subtree(fs):
    image = Filesystem(FsType.FAT, label="share")
    image.write("/payload/one.lst", "1")
    image.write("/payload/two.lst", "2")
    image.write("/other/skip.lst", "x")
    count = fs.copy_tree_from(image, src_root="/payload", dst_root="/")
    assert count == 2
    assert fs.read("/one.lst") == "1"
    assert not fs.exists("/skip.lst")


def test_file_count(fs):
    assert fs.file_count == 0
    fs.write("/a", "1")
    fs.write("/b", "2")
    assert fs.file_count == 2
