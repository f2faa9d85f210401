"""Tests for the buffer pool: caching, eviction, crash, WAL interplay."""

from collections import OrderedDict

import pytest

from repro.engine.database import DatabaseEngine
from repro.engine.session import EngineSession
from repro.sim.costs import SERVER_CPU, SERVER_DISK, CostModel
from repro.sim.meter import Meter, Segment
from repro.storage.buffer_pool import READ_AHEAD_PAGES, BufferPool
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



class TestReadAhead:
    """Cold scans queue reads ahead on the pool's disk timeline.  Costs
    are powers of two, so the timeline arithmetic is exact."""

    CAPACITY = 4
    PAGES = 12
    READ = 0.5
    WRITE = 0.25

    @pytest.fixture
    def meter(self):
        return Meter(CostModel(disk_page_read_seconds=self.READ,
                               disk_page_write_seconds=self.WRITE))

    @pytest.fixture
    def pool(self, disk, meter):
        return BufferPool(disk, meter, capacity_pages=self.CAPACITY)

    @pytest.fixture
    def big(self, pool):
        return _heap_on_disk(pool, 2, self.PAGES)

    def _scan_with_cpu(self, heap, meter, cpu):
        """Scan ``heap`` spending ``cpu`` seconds on each page; returns
        the disk segments charged and the virtual seconds elapsed."""
        start = meter.now
        sink = meter.push_recorder()
        for _block in heap.scan_pages():
            meter.charge_batched(SERVER_CPU, cpu, "query cpu")
        meter.pop_recorder(sink)
        return ([seg for seg in sink if seg.resource == SERVER_DISK],
                meter.now - start)

    @pytest.mark.parametrize("cpu_reads", [1, 2])
    def test_scan_with_enough_cpu_stalls_only_on_first_page(
            self, pool, meter, big, cpu_reads):
        cpu = cpu_reads * self.READ
        stalls, elapsed = self._scan_with_cpu(big, meter, cpu)
        assert stalls == [Segment(SERVER_DISK, self.READ, "page io")]
        assert elapsed == self.READ + self.PAGES * cpu
        assert pool.read_ahead_issued == self.PAGES
        assert pool.read_ahead_wasted == 0

    def test_scan_without_cpu_pays_the_serial_sum(self, pool, meter, big):
        _stalls, elapsed = self._scan_with_cpu(big, meter, 0.0)
        assert elapsed == self.PAGES * self.READ

    def test_accounting_matches_a_synchronous_cold_scan(self, pool, meter,
                                                        disk, big):
        before = (pool.hits, pool.misses, pool.cold_admissions,
                  disk.page_reads, meter.counters["disk_io"])
        self._scan_with_cpu(big, meter, self.READ)
        after = (pool.hits, pool.misses, pool.cold_admissions,
                 disk.page_reads, meter.counters["disk_io"])
        assert [b - a for a, b in zip(before, after)] \
            == [0] + [self.PAGES] * 4
        assert pool.resident_pages == self.CAPACITY
        assert not pool._in_flight

    def test_point_read_waits_behind_reads_in_flight(self, pool, meter,
                                                     big):
        other = _heap_on_disk(pool, 3, 1)
        blocks = big.scan_pages()
        next(blocks)  # page 0 taken; pages 1..8 queued behind it
        queued = READ_AHEAD_PAGES * self.READ
        start = meter.now
        other.read(RowId(3, 0, 0))
        assert meter.now - start == queued + self.READ
        start = meter.now
        next(blocks)  # page 1 finished while the point read waited
        assert meter.now == start
        blocks.close()

    def test_write_back_waits_behind_reads_in_flight(self, pool, meter,
                                                     big):
        page = pool.new_page(3, 0, capacity=4)
        page.insert(("x",))
        blocks = big.scan_pages()
        next(blocks)
        start = meter.now
        pool.flush_page(3, 0)
        assert meter.now - start == READ_AHEAD_PAGES * self.READ \
            + self.WRITE
        blocks.close()

    def test_crash_discards_pages_in_flight(self, pool, disk, big):
        blocks = big.scan_pages()
        next(blocks)
        assert pool._in_flight
        pool.crash()
        assert not pool._in_flight and pool._disk_free == 0.0
        reads = disk.page_reads
        assert pool.get_page(2, 1) is not None
        assert disk.page_reads - reads == 1  # read again, synchronously

    def test_drop_file_discards_its_pages_in_flight(self, pool, big):
        other = _heap_on_disk(pool, 3, 2 * self.CAPACITY)
        blocks = big.scan_pages()
        next(blocks)
        other_blocks = other.scan_pages()
        next(other_blocks)
        pool.drop_file(2)
        assert pool._in_flight
        assert all(file_id == 3 for file_id, _ in pool._in_flight)
        blocks.close()
        other_blocks.close()

    def test_stopped_scan_counts_waste_and_next_scan_reads_once(
            self, pool, disk, big):
        reads = disk.page_reads
        blocks = big.scan_pages()
        next(blocks)  # a TOP 1: one page taken, then the scan stops
        blocks.close()
        assert pool.read_ahead_issued == READ_AHEAD_PAGES + 1
        assert pool.read_ahead_wasted == READ_AHEAD_PAGES
        _scan(big)
        assert disk.page_reads - reads == self.PAGES
        assert pool.read_ahead_issued == self.PAGES
        assert pool.read_ahead_wasted == READ_AHEAD_PAGES

    def test_frozen_clock_reads_synchronously(self, pool, meter, big):
        # Trace replay, loads and overlap windows run with the clock
        # frozen: every page is one synchronous read, as without
        # read-ahead, so the recorded trace is unchanged.
        meter.advance_clock = False
        stalls, elapsed = self._scan_with_cpu(big, meter, self.READ)
        assert stalls == [Segment(SERVER_DISK, self.READ, "page io")] \
            * self.PAGES
        assert elapsed == 0.0
        assert pool.read_ahead_issued == 0
        assert not pool._in_flight

    def test_file_that_fits_is_not_read_ahead(self, pool, meter):
        small = _heap_on_disk(pool, 1, self.CAPACITY)
        stalls, _elapsed = self._scan_with_cpu(small, meter, self.READ)
        assert stalls == [Segment(SERVER_DISK, self.READ, "page io")] \
            * self.CAPACITY
        assert pool.read_ahead_issued == 0


def test_sys_buffer_pool_view_reports_pool_state():
    engine = DatabaseEngine(meter=Meter())
    engine.buffer_pool.capacity_pages = 4
    session = EngineSession(session_id=1)
    engine.execute("CREATE TABLE t (k INT NOT NULL, pad CHAR(200), "
                   "PRIMARY KEY (k))", session)
    engine.execute("INSERT INTO t VALUES " + ", ".join(
        f"({i}, 'x')" for i in range(200)), session)
    engine.checkpoint()
    engine.buffer_pool.crash()  # every page on disk only
    engine.execute("SELECT TOP 1 pad FROM t", session).fetch_all()
    engine.execute("SELECT count(*) FROM t", session).fetch_all()
    pool = engine.buffer_pool
    assert pool.cold_admissions > 0
    assert pool.read_ahead_issued > 0
    # t has 5 pages: the TOP 1 took page 0 and stopped with 1..4 in
    # flight, which the count(*) then consumed without reading again.
    assert pool.read_ahead_wasted == 4
    assert pool.read_ahead_issued == 5
    expected = {name: getattr(pool, name)
                for name in ("capacity_pages", "resident_pages",
                             "dirty_pages", "hits", "misses",
                             "cold_admissions", "read_ahead_issued",
                             "read_ahead_wasted")}
    rows = dict(engine.execute(
        "SELECT metric, value FROM sys_buffer_pool", session).fetch_all())
    assert rows == expected
