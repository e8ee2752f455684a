"""Tests for the bounded clean-object cache (ObjectHeap(cache_limit=N))."""

import threading

import pytest

from repro.store.heap import HeapError, ObjectHeap


@pytest.fixture
def path(tmp_path):
    return str(tmp_path / "cache.tyc")


def test_cache_limit_must_be_positive(path):
    with pytest.raises(HeapError):
        ObjectHeap(path, cache_limit=0)


def test_clean_objects_evicted_past_limit(path):
    heap = ObjectHeap(path, cache_limit=4)
    oids = [heap.store((i,)) for i in range(10)]
    heap.commit()  # everything clean now; eviction may drop to the bound
    assert len(heap._cache) <= 4
    # every object transparently reloads from its page chain
    for i, oid in enumerate(oids):
        assert heap.load(oid) == (i,)
    assert len(heap._cache) <= 4
    heap.close()


def test_dirty_objects_never_evicted(path):
    heap = ObjectHeap(path, cache_limit=2)
    dirty_oids = [heap.store((i,)) for i in range(8)]
    # nothing committed: all 8 are dirty, the bound must yield
    assert len(heap._cache) == 8
    heap.commit()
    assert len(heap._cache) <= 2
    for i, oid in enumerate(dirty_oids):
        assert heap.load(oid) == (i,)
    heap.close()


def test_eviction_is_lru(path):
    heap = ObjectHeap(path, cache_limit=3)
    oids = [heap.store((i,)) for i in range(3)]
    heap.commit()
    heap.load(oids[0])  # 0 becomes most-recent; 1 is now the LRU victim
    heap.store(("fresh",))  # push one more in (dirty, not evictable)
    assert int(oids[1]) not in heap._cache
    assert int(oids[0]) in heap._cache
    heap.close()


def test_evicted_object_loses_identity_mapping(path):
    heap = ObjectHeap(path, cache_limit=1)
    obj = tuple(["unique"])  # built at runtime: not the interned constant
    oid = heap.store(obj)
    heap.commit()
    # push enough committed objects through to evict obj
    for i in range(3):
        heap.store((i,))
    heap.commit()
    assert int(oid) not in heap._cache
    assert heap.oid_of(obj) is None  # a stale identity would corrupt store()
    # the reloaded copy is a fresh equal object
    assert heap.load(oid) == ("unique",)
    heap.close()


def test_update_after_eviction_roundtrips(path):
    heap = ObjectHeap(path, cache_limit=2)
    oid = heap.store(("v1", 0))
    heap.commit()
    for i in range(4):
        heap.store((i,))
    heap.commit()  # oid's object likely evicted now
    heap.update(oid, ("v2", 0))  # resupplying the value works regardless
    heap.commit()
    heap.close()
    reopened = ObjectHeap(path)
    assert reopened.load(oid) == ("v2", 0)
    reopened.close()


def test_unbounded_default_keeps_everything(path):
    heap = ObjectHeap(path)
    oids = [heap.store((i,)) for i in range(50)]
    heap.commit()
    assert len(heap._cache) == len(oids)
    heap.close()


def test_in_memory_heap_accepts_limit():
    # path=None has no page backing, so nothing is ever evictable — the
    # limit is simply inert instead of an error
    heap = ObjectHeap(cache_limit=2)
    oids = [heap.store((i,)) for i in range(5)]
    heap.commit()
    for i, oid in enumerate(oids):
        assert heap.load(oid) == (i,)


class _HandoffFile:
    """A pass-through image file whose ``seek`` calls ``hook(offset)``
    before returning, so a test can hand control to another reader in the
    gap between a page read's seek and its read."""

    def __init__(self, path, mode, hook):
        self._file = open(path, mode)
        self._hook = hook

    def seek(self, offset, whence=0):
        position = self._file.seek(offset, whence)
        self._hook(offset)
        return position

    def __getattr__(self, name):
        return getattr(self._file, name)


@pytest.mark.parametrize("read", ["load", "committed_payload"])
def test_concurrent_page_reads_do_not_interleave(path, read):
    """Reader A seeks to its page, then reader B runs to completion before A
    reads.  On one shared file object without serialisation A then reads
    the page *after* B's — object C's, of the same length, so A silently
    gets another object's value.  Serialised, B blocks until A is done and
    the bounded hand-off wait simply expires."""
    heap = ObjectHeap(path)
    oids = {name: heap.store(name * 100) for name in "ABC"}  # pages in order
    heap.commit()
    expected = {name: getattr(heap, read)(oid) for name, oid in oids.items()}
    heap.close()

    results = {}
    b_done = threading.Event()
    handed_off = []

    def reader(name):
        try:
            results[name] = getattr(heap, read)(oids[name])
        except Exception as exc:
            results[name] = exc
        finally:
            if name == "B":
                b_done.set()

    reader_b = threading.Thread(target=reader, args=("B",))

    def hook(offset):
        if threading.current_thread().name == "reader-A" and not handed_off:
            handed_off.append(offset)
            reader_b.start()
            b_done.wait(timeout=1.0)

    heap = ObjectHeap(path, io_factory=lambda p, m: _HandoffFile(p, m, hook))
    try:
        reader_a = threading.Thread(target=reader, args=("A",), name="reader-A")
        reader_a.start()
        reader_a.join(timeout=10)
        reader_b.join(timeout=10)
        assert not reader_a.is_alive() and not reader_b.is_alive()
    finally:
        heap.close()
    assert handed_off
    assert results == {"A": expected["A"], "B": expected["B"]}
