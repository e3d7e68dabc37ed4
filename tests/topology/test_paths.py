"""Tests for the Path abstraction."""

import pytest

from repro.errors import PathError
from repro.topology.builders import linear
from repro.topology.paths import Path, as_path


class TestConstruction:
    def test_basic(self):
        path = Path([1, 2, 3])
        assert path.source == 1 and path.destination == 3
        assert len(path) == 3

    def test_too_short(self):
        with pytest.raises(PathError, match="two nodes"):
            Path([1])

    def test_not_simple(self):
        with pytest.raises(PathError, match="simple"):
            Path([1, 2, 1])

    def test_as_path_idempotent(self):
        path = Path([1, 2])
        assert as_path(path) is path
        assert as_path([1, 2]) == path

    def test_equality_with_sequences(self):
        assert Path([1, 2, 3]) == (1, 2, 3)
        assert Path([1, 2, 3]) == [1, 2, 3]
        assert Path([1, 2, 3]) != Path([1, 3, 2])

    def test_hashable(self):
        assert len({Path([1, 2]), Path([1, 2]), Path([2, 1])}) == 2


class TestNavigation:
    @pytest.fixture
    def path(self):
        return Path([1, 2, 3, 4, 5])

    def test_next_prev(self, path):
        assert path.next_hop(2) == 3
        assert path.prev_hop(2) == 1
        assert path.next_hop(5) is None
        assert path.prev_hop(1) is None

    def test_off_path_raises(self, path):
        with pytest.raises(PathError):
            path.next_hop(99)

    def test_index_of(self, path):
        assert path.index_of(3) == 2

    def test_edges(self, path):
        assert list(path.edges()) == [(1, 2), (2, 3), (3, 4), (4, 5)]

    def test_before_after(self, path):
        assert path.before(3) == (1, 2)
        assert path.before(3, strict=False) == (1, 2, 3)
        assert path.after(3) == (4, 5)
        assert path.after(3, strict=False) == (3, 4, 5)

    def test_reversed(self, path):
        assert path.reversed() == (5, 4, 3, 2, 1)

    def test_contains_getitem(self, path):
        assert 3 in path and 99 not in path
        assert path[0] == 1 and path[-1] == 5


class TestTopologyValidation:
    def test_missing_link(self):
        topo = linear(5)
        with pytest.raises(PathError, match="not a link"):
            Path([1, 3, 5]).validate_in(topo)
