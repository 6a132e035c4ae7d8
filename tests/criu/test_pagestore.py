"""Tests for the backup page stores, including dict-oracle properties and
a differential check against the list-of-lists radix tree and the
scan-every-directory linked list the stores used to be."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.criu.pagestore import LinkedListPageStore, RadixTreePageStore
from repro.kernel.costmodel import CostModel


def make_stores():
    costs = CostModel()
    return RadixTreePageStore(costs), LinkedListPageStore(costs)


def test_store_and_lookup_basic():
    for store in make_stores():
        store.begin_checkpoint()
        store.store_page(1, 5, b"five")
        store.store_page(1, 70000, b"high")
        assert store.lookup(1, 5) == b"five"
        assert store.lookup(1, 70000) == b"high"
        assert store.lookup(1, 6) is None
        assert store.lookup(2, 5) is None


def test_later_checkpoint_overwrites():
    for store in make_stores():
        store.begin_checkpoint()
        store.store_page(1, 5, b"v1")
        store.begin_checkpoint()
        store.store_page(1, 5, b"v2")
        assert store.lookup(1, 5) == b"v2"
        assert store.pages_of(1) == {5: b"v2"}


def test_pages_of_merges_checkpoints():
    for store in make_stores():
        store.begin_checkpoint()
        store.store_page(1, 1, b"a")
        store.store_page(1, 2, b"b")
        store.begin_checkpoint()
        store.store_page(1, 2, b"b2")
        store.store_page(1, 3, b"c")
        assert store.pages_of(1) == {1: b"a", 2: b"b2", 3: b"c"}


def test_pids_are_isolated():
    for store in make_stores():
        store.begin_checkpoint()
        store.store_page(1, 9, b"one")
        store.store_page(2, 9, b"two")
        assert store.pages_of(1) == {9: b"one"}
        assert store.pages_of(2) == {9: b"two"}


def test_radix_cost_constant_in_history():
    costs = CostModel()
    store = RadixTreePageStore(costs)
    first_costs = []
    for _ in range(50):
        store.begin_checkpoint()
        first_costs.append(store.store_page(1, 42, b"x"))
    assert len(set(first_costs)) == 1  # O(1) regardless of checkpoint count


def test_linked_list_cost_grows_with_history():
    """The stock-CRIU pathology NiLiCon's radix tree removes (SSV-A)."""
    costs = CostModel()
    store = LinkedListPageStore(costs)
    per_ckpt_costs = []
    for _ in range(50):
        store.begin_checkpoint()
        per_ckpt_costs.append(store.store_page(1, 42, b"x"))
    assert per_ckpt_costs[-1] > per_ckpt_costs[0]
    assert per_ckpt_costs == sorted(per_ckpt_costs)


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=3),  # pid
            st.integers(min_value=0, max_value=1 << 34),  # page index
            st.binary(min_size=0, max_size=8),  # content token
            st.booleans(),  # begin a new checkpoint first?
        ),
        max_size=80,
    )
)
def test_property_stores_match_dict_oracle(ops):
    """Both stores always agree with a plain {(pid, idx): content} oracle."""
    radix, linked = make_stores()
    oracle: dict[tuple[int, int], bytes] = {}
    radix.begin_checkpoint()
    linked.begin_checkpoint()
    for pid, idx, content, new_ckpt in ops:
        if new_ckpt:
            radix.begin_checkpoint()
            linked.begin_checkpoint()
        radix.store_page(pid, idx, content)
        linked.store_page(pid, idx, content)
        oracle[(pid, idx)] = content
    for pid in {1, 2, 3}:
        expected = {idx: c for (p, idx), c in oracle.items() if p == pid}
        assert radix.pages_of(pid) == expected
        assert linked.pages_of(pid) == expected
        for idx, content in expected.items():
            assert radix.lookup(pid, idx) == content
            assert linked.lookup(pid, idx) == content


# ---------------------------------------------------------------------- #
# Differential check against the previous host layouts                    #
# ---------------------------------------------------------------------- #
_BITS = 9
_FANOUT = 1 << _BITS


class ReferenceRadixTree:
    """The four-level list-of-lists radix tree RadixTreePageStore was."""

    def __init__(self, costs):
        self.costs = costs
        self._roots = {}
        self.checkpoints_taken = 0
        self._undo = []
        self._open = False

    @property
    def checkpoint_open(self):
        return self._open

    def begin_checkpoint(self):
        self.checkpoints_taken += 1
        self._open = True
        self._undo.clear()

    def commit_checkpoint(self):
        self._open = False
        self._undo.clear()

    def abort_checkpoint(self):
        if not self._open:
            return
        for pid, page_idx, prior in reversed(self._undo):
            *path, last = self._indices(page_idx)
            node = self._roots[pid]
            for idx in path:
                node = node[idx]
            node[last] = prior
        self._undo.clear()
        self._open = False
        self.checkpoints_taken -= 1

    @staticmethod
    def _indices(page_idx):
        return tuple((page_idx >> (level * _BITS)) & (_FANOUT - 1) for level in (3, 2, 1, 0))

    def store_page(self, pid, page_idx, content):
        node = self._roots.setdefault(pid, [None] * _FANOUT)
        *path, last = self._indices(page_idx)
        for idx in path:
            if node[idx] is None:
                node[idx] = [None] * _FANOUT
            node = node[idx]
        if self._open:
            self._undo.append((pid, page_idx, node[last]))
        node[last] = content
        return self.costs.pagestore_radix_per_page

    def lookup(self, pid, page_idx):
        node = self._roots.get(pid)
        for idx in self._indices(page_idx):
            if node is None:
                return None
            node = node[idx]
        return node

    def _walk(self, node, prefix, level):
        for idx, child in enumerate(node):
            if child is None:
                continue
            key = (prefix << _BITS) | idx
            if level == 3:
                yield key, child
            else:
                yield from self._walk(child, key, level + 1)

    def pages_of(self, pid):
        root = self._roots.get(pid)
        return {} if root is None else dict(self._walk(root, 0, 0))


class ReferenceLinkedList:
    """The linked list that scanned every older directory per page."""

    def __init__(self, costs):
        self.costs = costs
        self._dirs = []
        self.checkpoints_taken = 0
        self._undo = []
        self._open = False

    @property
    def checkpoint_open(self):
        return self._open

    def begin_checkpoint(self):
        self.checkpoints_taken += 1
        self._dirs.append({})
        self._open = True
        self._undo.clear()

    def commit_checkpoint(self):
        self._open = False
        self._undo.clear()

    def abort_checkpoint(self):
        if not self._open:
            return
        self._dirs.pop()
        for dir_idx, key, content in reversed(self._undo):
            self._dirs[dir_idx][key] = content
        self._undo.clear()
        self._open = False
        self.checkpoints_taken -= 1

    def store_page(self, pid, page_idx, content):
        if not self._dirs:
            self.begin_checkpoint()
        key = (pid, page_idx)
        searched = 0
        for dir_idx, directory in enumerate(self._dirs[:-1]):
            searched += 1
            stale = directory.pop(key, None)
            if stale is not None and self._open:
                self._undo.append((dir_idx, key, stale))
        self._dirs[-1][key] = content
        return (searched + 1) * self.costs.pagestore_list_per_page_per_ckpt

    def lookup(self, pid, page_idx):
        for directory in reversed(self._dirs):
            if (pid, page_idx) in directory:
                return directory[(pid, page_idx)]
        return None

    def pages_of(self, pid):
        merged = {}
        for directory in self._dirs:
            for (owner, page_idx), content in directory.items():
                if owner == pid:
                    merged[page_idx] = content
        return merged


PIDS = (1, 2, 3)
#: Mostly a small index range, so overwrites and stale copies are common,
#: plus the whole 36-bit page-index space a 48-bit address space has.
page_index = st.one_of(st.integers(0, 24), st.integers(0, (1 << 36) - 1))
store_op = st.tuples(st.just("store"), st.sampled_from(PIDS), page_index,
                     st.binary(min_size=0, max_size=4))
op = st.one_of(
    store_op, store_op, store_op,
    st.tuples(st.sampled_from(["begin", "commit", "abort"])),
)


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(op, max_size=120))
def test_differential_stores_match_previous_layouts(ops):
    """Same pages (contents and order), lookups, costs and checkpoint
    counts as the previous implementations, over any begin/store/abort/
    commit sequence."""
    costs = CostModel()
    pairs = [
        (RadixTreePageStore(costs), ReferenceRadixTree(costs)),
        (LinkedListPageStore(costs), ReferenceLinkedList(costs)),
    ]
    for store, reference in pairs:
        store_costs, reference_costs = [], []
        probes = set()
        for kind, *args in ops:
            if kind == "store":
                store_costs.append(store.store_page(*args))
                reference_costs.append(reference.store_page(*args))
                probes.add(tuple(args[:2]))
            else:
                getattr(store, f"{kind}_checkpoint")()
                getattr(reference, f"{kind}_checkpoint")()
            assert store.checkpoints_taken == reference.checkpoints_taken
            assert store.checkpoint_open == reference.checkpoint_open
        assert store_costs == reference_costs
        assert store.pages_stored == len(store_costs)
        for pid in PIDS:
            assert list(store.pages_of(pid).items()) == list(reference.pages_of(pid).items())
        for pid, page_idx in probes:
            assert store.lookup(pid, page_idx) == reference.lookup(pid, page_idx)
            neighbour = page_idx ^ 1
            assert store.lookup(pid, neighbour) == reference.lookup(pid, neighbour)
