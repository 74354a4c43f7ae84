"""Property-based tests for partition-table invariants."""

from typing import List

from hypothesis import given, settings, strategies as st

from repro.errors import StorageError
from repro.storage import Disk, FsType, PartitionKind
from repro.storage.filesystem import normalize

# random operation streams against a disk
op = st.one_of(
    st.tuples(st.just("primary"), st.floats(min_value=1, max_value=100_000)),
    st.tuples(st.just("extended"), st.floats(min_value=1, max_value=100_000)),
    st.tuples(st.just("logical"), st.floats(min_value=1, max_value=50_000)),
    st.tuples(st.just("delete"), st.integers(min_value=1, max_value=8)),
    st.tuples(st.just("format"), st.integers(min_value=1, max_value=8)),
)


def check_invariants(disk: Disk) -> None:
    parts = disk.partitions
    outer = [p for p in parts if p.kind is not PartitionKind.LOGICAL]
    logical = [p for p in parts if p.kind is PartitionKind.LOGICAL]
    # 1. outer partitions never overlap each other
    for i, a in enumerate(outer):
        for b in outer[i + 1:]:
            assert not a.overlaps(b), (a, b)
    # 2. outer partitions stay on the disk
    for p in outer:
        assert 0 <= p.start_mb and p.end_mb <= disk.size_mb + 1e-6
    # 3. logicals never overlap and live inside the extended container
    ext = disk.extended
    for i, a in enumerate(logical):
        assert ext is not None
        assert ext.start_mb - 1e-6 <= a.start_mb
        assert a.end_mb <= ext.end_mb + 1e-6
        for b in logical[i + 1:]:
            assert not a.overlaps(b)
    # 4. numbering: primaries/extended in 1..4, logicals from 5, unique
    numbers = [p.number for p in parts]
    assert len(numbers) == len(set(numbers))
    for p in outer:
        assert 1 <= p.number <= 4
    for p in logical:
        assert p.number >= 5
    # 5. at most one active partition, and it is primary
    active = [p for p in parts if p.active]
    assert len(active) <= 1
    for p in active:
        assert p.kind is PartitionKind.PRIMARY


@settings(max_examples=60)
@given(ops=st.lists(op, max_size=25))
def test_partition_table_invariants_hold_under_any_op_stream(ops):
    disk = Disk(size_mb=250_000)
    for verb, arg in ops:
        try:
            if verb == "primary":
                disk.create_partition(arg, PartitionKind.PRIMARY)
            elif verb == "extended":
                disk.create_partition(arg, PartitionKind.EXTENDED)
            elif verb == "logical":
                disk.create_partition(arg, PartitionKind.LOGICAL)
            elif verb == "delete":
                disk.delete_partition(int(arg))
            elif verb == "format":
                disk.partition(int(arg)).format(FsType.EXT3)
        except StorageError:
            pass  # rejected ops must leave the table consistent
        check_invariants(disk)


@settings(max_examples=60)
@given(
    segments=st.lists(
        st.text(
            alphabet="abcXYZ019._-",
            min_size=1,
            max_size=8,
        ).filter(lambda s: s not in (".", "..")),
        min_size=1,
        max_size=6,
    )
)
def test_normalize_idempotent_and_absolute(segments):
    path = "/".join(segments)
    once = normalize(path)
    assert once.startswith("/")
    assert normalize(once) == once
    assert ".." not in once.split("/")


@settings(max_examples=40)
@given(
    files=st.dictionaries(
        st.text(alphabet="abc/", min_size=1, max_size=12),
        st.text(max_size=20),
        max_size=10,
    )
)
def test_filesystem_read_back_what_you_wrote(files):
    from repro.storage import Filesystem

    fs = Filesystem(FsType.EXT3)
    expected = {}
    for path, content in files.items():
        key = normalize(path)
        if key == "/":
            continue
        fs.write(path, content)
        expected[key] = content
    for key, content in expected.items():
        assert fs.read(key) == content
    assert fs.file_count == len(expected)


def seed_normalize(path: str) -> str:
    """``normalize`` before it returned already-normal paths unchanged,
    kept verbatim as the oracle."""
    parts = [p for p in path.replace("\\", "/").split("/") if p and p != "."]
    out: List[str] = []
    for part in parts:
        if part == "..":
            if out:
                out.pop()
        else:
            out.append(part)
    return "/" + "/".join(out)


path_segments = st.sampled_from(
    ["", ".", "..", "...", ".hidden", "C:", "c:", "boot", "menu.lst", "a b"]
)
separators = st.sampled_from(["/", "\\", "//", "\\/"])


@st.composite
def raw_paths(draw):
    segments = draw(st.lists(path_segments, max_size=6))
    path = ""
    for segment in segments:
        path += draw(separators) + segment
    if draw(st.booleans()):  # relative
        path = path.lstrip("/\\")
    if draw(st.booleans()):  # trailing slash
        path += draw(separators)
    return path


@settings(max_examples=300)
@given(path=st.one_of(raw_paths(), st.text(alphabet="/\\.aC:", max_size=12)))
def test_normalize_matches_the_seed_implementation(path):
    out = normalize(path)
    assert out == seed_normalize(path)
    assert normalize(out) == out
    if "/." not in out:
        # a normal path comes back as the same object, so every node's
        # filesystem shares the image's key strings
        assert normalize(out) is out
