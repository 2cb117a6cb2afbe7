"""Exactness of the hot-path fast paths against the general algorithms.

``memkv._sizeof`` sizes flat values and flat dicts without recursion, and
``normalize_path`` returns an already-canonical path without splitting
it.  Both must agree with the general algorithm on every input; the
oracles below are verbatim copies of the versions without fast paths.
"""

from typing import Any

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dfs.errors import InvalidPath
from repro.dfs.inode import AccessMode, FileType
from repro.dfs.namespace import normalize_path
from repro.kvstore.memkv import _sizeof


def oracle_sizeof(value: Any) -> int:
    """Approximate in-cache footprint of a value, in bytes."""
    if value is None:
        return 8
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, (int, float, bool)):
        return 16
    if isinstance(value, dict):
        return 64 + sum(oracle_sizeof(k) + oracle_sizeof(v)
                        for k, v in value.items())
    if isinstance(value, (list, tuple, set, frozenset)):
        return 32 + sum(oracle_sizeof(v) for v in value)
    return 64  # opaque object


def oracle_normalize_path(path: str) -> str:
    """Validate and canonicalize an absolute path.

    Rejects relative paths and '.'/'..' segments (the DFS client resolves
    those before they hit the wire, as real DFS clients do).
    """
    if not isinstance(path, str) or not path:
        raise InvalidPath(str(path), "empty path")
    if not path.startswith("/"):
        raise InvalidPath(path, "path must be absolute")
    if "\x00" in path:
        raise InvalidPath(path, "embedded NUL")
    parts = [p for p in path.split("/") if p]
    for p in parts:
        if p in (".", ".."):
            raise InvalidPath(path, "'.'/'..' must be client-resolved")
    return "/" + "/".join(parts)


class _Opaque:
    pass


class _Str(str):
    pass


hashable_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(),
    st.binary(),
    st.sampled_from(list(AccessMode)),
    st.sampled_from(list(FileType)),
)
scalars = st.one_of(hashable_scalars, st.builds(_Opaque),
                    st.text().map(_Str))
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.frozensets(hashable_scalars, max_size=5),
        st.dictionaries(hashable_scalars, children, max_size=6),
    ),
    max_leaves=30,
)
#: Flat cache records: string keys, scalar values (the common shape).
records = st.dictionaries(st.text(max_size=12), scalars, max_size=16)


@settings(max_examples=400, deadline=None)
@given(values)
def test_sizeof_matches_recursive_sizer(value):
    assert _sizeof(value) == oracle_sizeof(value)


@settings(max_examples=200, deadline=None)
@given(records)
def test_sizeof_matches_recursive_sizer_on_flat_records(record):
    assert _sizeof(record) == oracle_sizeof(record)


def _outcome(fn, path):
    try:
        return "ok", fn(path)
    except InvalidPath as exc:
        return "invalid", exc.path, exc.detail


@settings(max_examples=600, deadline=None)
@given(st.text(alphabet=["/", ".", "\x00", "a", "é"], max_size=12))
def test_normalize_path_matches_general_path(path):
    result = _outcome(normalize_path, path)
    assert result == _outcome(oracle_normalize_path, path)
    if result[0] == "ok":
        assert type(result[1]) is str


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet=["/", ".", "a"], max_size=8).map(_Str))
def test_normalize_path_str_subclass_matches(path):
    assert (_outcome(normalize_path, path)
            == _outcome(oracle_normalize_path, path))


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.none(), st.integers(), st.binary(), st.floats(),
                 st.lists(st.text(max_size=3), max_size=2)))
def test_normalize_path_non_str_differs_only_in_reason(path):
    # The one intended difference: a non-str input now says so instead
    # of claiming the path is empty.
    assert _outcome(normalize_path, path) == (
        "invalid", str(path), "path must be a str")
    assert _outcome(oracle_normalize_path, path) == (
        "invalid", str(path), "empty path")
