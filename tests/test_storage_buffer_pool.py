"""Tests for the buffer pool: caching, eviction, crash, WAL interplay."""

from collections import OrderedDict

import pytest

from repro.engine.database import DatabaseEngine
from repro.engine.session import EngineSession
from repro.sim.costs import SERVER_DISK
from repro.sim.meter import Meter
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.heap import HeapFile, RowId
from repro.storage.page import Page


@pytest.fixture
def disk():
    return SimulatedDisk()


@pytest.fixture
def meter():
    return Meter()


class TestBufferPool:
    def test_new_page_is_dirty_and_resident(self, disk, meter):
        pool = BufferPool(disk, meter)
        pool.new_page(1, 0, capacity=4)
        assert pool.is_dirty(1, 0)
        assert pool.resident_pages == 1
        assert not disk.has_page(1, 0)

    def test_duplicate_new_page_rejected(self, disk, meter):
        pool = BufferPool(disk, meter)
        pool.new_page(1, 0, capacity=4)
        with pytest.raises(ValueError):
            pool.new_page(1, 0, capacity=4)

    def test_flush_writes_to_disk(self, disk, meter):
        pool = BufferPool(disk, meter)
        page = pool.new_page(1, 0, capacity=4)
        page.insert(("x",))
        pool.flush_page(1, 0)
        assert disk.has_page(1, 0)
        assert not pool.is_dirty(1, 0)

    def test_get_page_faults_from_disk_and_charges(self, disk, meter):
        pool = BufferPool(disk, meter)
        page = pool.new_page(1, 0, capacity=4)
        page.insert(("x",))
        pool.flush_all()
        pool.crash()
        before = meter.now
        fetched = pool.get_page(1, 0)
        assert fetched.read(0) == ("x",)
        assert meter.now > before  # read I/O charged
        # Second access is a hit: no extra I/O.
        at_hit = meter.now
        pool.get_page(1, 0)
        assert meter.now == at_hit

    def test_get_missing_page_returns_none(self, disk, meter):
        pool = BufferPool(disk, meter)
        assert pool.get_page(9, 9) is None

    def test_crash_loses_dirty_pages(self, disk, meter):
        pool = BufferPool(disk, meter)
        page = pool.new_page(1, 0, capacity=4)
        page.insert(("lost",))
        pool.crash()
        assert pool.get_page(1, 0) is None

    def test_crash_keeps_flushed_pages_on_disk(self, disk, meter):
        pool = BufferPool(disk, meter)
        page = pool.new_page(1, 0, capacity=4)
        page.insert(("kept",))
        pool.flush_all()
        page.insert(("lost",))  # dirty again, not flushed
        pool.mark_dirty(1, 0)
        pool.crash()
        refetched = pool.get_page(1, 0)
        assert refetched.live_rows == 1
        assert refetched.read(0) == ("kept",)

    def test_eviction_respects_capacity(self, disk, meter):
        pool = BufferPool(disk, meter, capacity_pages=3)
        for i in range(5):
            pool.new_page(1, i, capacity=4)
        assert pool.resident_pages <= 3
        # Evicted dirty pages were flushed, not lost.
        evicted = [i for i in range(5) if disk.has_page(1, i)]
        assert len(evicted) >= 2

    def test_volatile_pages_never_flushed_or_evicted(self, disk, meter):
        pool = BufferPool(disk, meter, capacity_pages=2)
        pool.register_volatile(99)
        pool.new_page(99, 0, capacity=4)
        for i in range(4):
            pool.new_page(1, i, capacity=4)
        assert pool.get_page(99, 0) is not None
        pool.flush_all()
        assert not disk.has_page(99, 0)

    def test_volatile_pages_vanish_on_crash(self, disk, meter):
        pool = BufferPool(disk, meter)
        pool.register_volatile(99)
        pool.new_page(99, 0, capacity=4)
        pool.crash()
        assert pool.get_page(99, 0) is None

    def test_volatile_frames_stay_out_of_the_lru(self, disk, meter):
        # The eviction scan must never walk volatile frames: they live
        # in their own dict, so the durable LRU holds only candidates.
        pool = BufferPool(disk, meter, capacity_pages=8)
        pool.register_volatile(99)
        for i in range(6):
            pool.new_page(99, i, capacity=4)
        pool.new_page(1, 0, capacity=4)
        assert all(key[0] != 99 for key in pool._frames)
        assert pool.resident_pages == 7
        # Filling past capacity evicts the durable page even though the
        # volatile majority is unevictable.
        pool.new_page(1, 1, capacity=4)
        pool.new_page(1, 2, capacity=4)
        assert disk.has_page(1, 0)
        assert pool.get_page(99, 3) is not None

    def test_drop_file_forgets_pages(self, disk, meter):
        pool = BufferPool(disk, meter)
        pool.new_page(1, 0, capacity=4)
        pool.drop_file(1)
        assert pool.resident_pages == 0
        assert pool.dirty_pages == 0

    def test_wal_forced_before_flush(self, disk, meter):
        forced = []

        class FakeWal:
            def force(self, up_to_lsn=None, sync=True):
                forced.append((up_to_lsn, sync))

        pool = BufferPool(disk, meter, wal=FakeWal())
        page = pool.new_page(1, 0, capacity=4)
        page.insert(("x",))
        page.page_lsn = 42
        pool.flush_page(1, 0)
        # WAL-rule flushes are write-behind (no synchronous force).
        assert forced == [(42, False)]

    def test_flush_charges_disk_time(self, disk, meter):
        pool = BufferPool(disk, meter)
        pool.new_page(1, 0, capacity=4)
        before = meter.now
        pool.flush_all()
        assert meter.now - before == pytest.approx(
            meter.costs.disk_page_write_seconds)

    def test_cost_factor_scales_io(self, disk, meter):
        pool = BufferPool(disk, meter)
        page = pool.new_page(1, 0, capacity=4)
        page.insert(("x",))
        pool.flush_all()
        pool.crash()
        before = meter.now
        pool.get_page(1, 0, cost_factor=10.0)
        assert meter.now - before == pytest.approx(
            10.0 * meter.costs.disk_page_read_seconds)

    def test_disk_isolation_from_pool_mutation(self, disk, meter):
        """Mutating a resident page must not leak to disk without flush."""
        pool = BufferPool(disk, meter)
        page = pool.new_page(1, 0, capacity=4)
        page.insert(("v1",))
        pool.flush_all()
        page.update(0, ("v2",))
        pool.mark_dirty(1, 0)
        pool.crash()
        assert pool.get_page(1, 0).read(0) == ("v1",)

    def test_zero_capacity_rejected(self, disk, meter):
        with pytest.raises(ValueError):
            BufferPool(disk, meter, capacity_pages=0)

    def test_mark_dirty_nonresident_raises(self, disk, meter):
        pool = BufferPool(disk, meter)
        with pytest.raises(ValueError):
            pool.mark_dirty(1, 0)


# -- scan resistance ----------------------------------------------------------


def _heap_on_disk(pool, file_id, pages):
    """A heap of ``pages`` one-row pages, flushed and evicted: every page
    lives on disk only."""
    heap = HeapFile(file_id, rows_per_page=1, buffer_pool=pool)
    for i in range(pages):
        heap.apply_insert(heap.find_insert_target(), (file_id, i))
    pool.flush_all()
    pool.crash()
    return heap


def _scan(heap):
    for _block in heap.scan_pages():
        pass


def _faults(pool, access):
    """Misses charged by ``access()``."""
    before = pool.misses
    access()
    return pool.misses - before


class TestScanResistance:
    CAPACITY = 8

    @pytest.fixture
    def pool(self, disk, meter):
        return BufferPool(disk, meter, capacity_pages=self.CAPACITY)

    def _read_hot(self, hot):
        for page_no in range(hot.page_count):
            hot.read(RowId(hot.file_id, page_no, 0))

    def test_hot_file_survives_scan_of_larger_file(self, pool):
        # Under plain LRU each scan would evict all three hot pages.
        hot = _heap_on_disk(pool, 1, 3)
        big = _heap_on_disk(pool, 2, 3 * self.CAPACITY)
        assert _faults(pool, lambda: self._read_hot(hot)) == 3
        for _ in range(3):
            _scan(big)
            assert _faults(pool, lambda: self._read_hot(hot)) == 0

    def test_later_scans_hit_pages_still_resident(self, pool):
        big = _heap_on_disk(pool, 2, 3 * self.CAPACITY)
        assert _faults(pool, lambda: _scan(big)) == big.page_count
        for _ in range(3):
            resident = sum(1 for key in pool._frames if key[0] == 2)
            assert resident == self.CAPACITY
            hits_before = pool.hits
            _scan(big)
            assert pool.hits - hits_before == resident - 1
        # Under LRU every scan of a file larger than the pool misses on
        # every page; here all but one frame's worth carry over.
        assert pool.misses == big.page_count + 3 * (
            big.page_count - self.CAPACITY + 1)

    def test_file_that_fits_follows_lru_exactly(self, pool):
        small = _heap_on_disk(pool, 1, self.CAPACITY - 2)
        other = _heap_on_disk(pool, 2, 4)
        reference = OrderedDict()
        observed, expected = [], []

        def model(key):
            hit = key in reference
            if hit:
                reference.move_to_end(key)
            else:
                if len(reference) >= self.CAPACITY:
                    reference.popitem(last=False)
                reference[key] = None
            expected.append(hit)

        def touch(heap, page_no):
            before = pool.hits
            heap.read(RowId(heap.file_id, page_no, 0))
            observed.append(pool.hits > before)
            model((heap.file_id, page_no))

        def scan(heap):
            before = pool.hits
            for page_no, _block in enumerate(heap.scan_pages()):
                observed.append(pool.hits > before)
                before = pool.hits
                model((heap.file_id, page_no))

        scan(small)
        touch(other, 0)
        touch(other, 1)
        scan(other)
        scan(small)
        touch(other, 3)
        touch(small, 0)
        scan(other)
        scan(small)
        assert observed == expected
        assert False in observed and True in observed
        assert pool.cold_admissions == 0

    def test_cold_dirty_page_forces_wal_before_eviction(self, disk, meter):
        forced = []

        class FakeWal:
            def force(self, up_to_lsn=None, sync=True):
                forced.append(up_to_lsn)

        pool = BufferPool(disk, meter, capacity_pages=2, wal=FakeWal())
        for i in range(3):
            pool.new_page(1, i, capacity=4)
        pool.flush_all()
        pool.crash()
        forced.clear()
        page = pool.get_page(1, 0, cold=True)
        page.insert(("x",))
        page.page_lsn = 42
        pool.mark_dirty(1, 0, rec_lsn=42)
        pool.get_page(1, 1)           # fills the pool; no eviction yet
        assert forced == []
        pool.get_page(1, 2, cold=True)  # evicts the cold page first
        assert forced == [42]
        assert not pool.is_dirty(1, 0)
        assert disk.read_page(1, 0).read(0) == ("x",)

    def test_cold_admissions_count_cold_misses(self, pool):
        hot = _heap_on_disk(pool, 1, 3)
        small = _heap_on_disk(pool, 2, self.CAPACITY)
        big = _heap_on_disk(pool, 3, 2 * self.CAPACITY)
        self._read_hot(hot)
        _scan(small)
        assert pool.cold_admissions == 0
        cold_misses = 0
        for _ in range(3):
            cold_misses += _faults(pool, lambda: _scan(big))
            assert pool.cold_admissions == cold_misses
        _scan(small)
        self._read_hot(hot)
        assert pool.cold_admissions == cold_misses


def test_sys_buffer_pool_view_reports_pool_state():
    engine = DatabaseEngine(meter=Meter())
    engine.buffer_pool.capacity_pages = 4
    session = EngineSession(session_id=1)
    engine.execute("CREATE TABLE t (k INT NOT NULL, pad CHAR(200), "
                   "PRIMARY KEY (k))", session)
    engine.execute("INSERT INTO t VALUES " + ", ".join(
        f"({i}, 'x')" for i in range(200)), session)
    engine.checkpoint()
    engine.execute("SELECT count(*) FROM t", session).fetch_all()
    pool = engine.buffer_pool
    assert pool.cold_admissions > 0
    expected = {name: getattr(pool, name)
                for name in ("capacity_pages", "resident_pages",
                             "dirty_pages", "hits", "misses",
                             "cold_admissions")}
    rows = dict(engine.execute(
        "SELECT metric, value FROM sys_buffer_pool", session).fetch_all())
    assert rows == expected
