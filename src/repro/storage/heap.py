"""Heap files: unordered row storage over slotted pages.

A :class:`HeapFile` owns the pages of one table (identified by
``file_id``) and goes through the buffer pool for every page touch, so all
I/O costs and crash semantics come from the pool.  Pages are numbered
``0..page_count-1``; row addresses are :class:`RowId` triples.

The heap does not write log records — that is the transaction manager's
job (it logs *before* asking the heap to change anything, then stamps the
page LSN through :meth:`apply_insert` / :meth:`apply_delete` /
:meth:`apply_update`, which are also the entry points redo and undo use).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.storage.buffer_pool import READ_AHEAD_PAGES, BufferPool
from repro.storage.page import Page


@dataclass(frozen=True, order=True)
class RowId:
    """Physical row address: file, page, slot."""

    file_id: int
    page_no: int
    slot: int


class HeapFile:
    """Row storage for one table."""

    def __init__(self, file_id: int, rows_per_page: int,
                 buffer_pool: BufferPool, cost_factor: float = 1.0):
        if rows_per_page < 1:
            raise ValueError("rows_per_page must be at least 1")
        self.file_id = file_id
        self.rows_per_page = rows_per_page
        self._pool = buffer_pool
        self.cost_factor = cost_factor
        self.page_count = 0
        self._pages_with_space: set[int] = set()

    @classmethod
    def attach(cls, file_id: int, rows_per_page: int,
               buffer_pool: BufferPool, disk,
               cost_factor: float = 1.0) -> "HeapFile":
        """Re-open an existing heap after restart, discovering its pages."""
        heap = cls(file_id, rows_per_page, buffer_pool, cost_factor)
        page_nos = disk.file_page_numbers(file_id)
        heap.page_count = (max(page_nos) + 1) if page_nos else 0
        for page_no in page_nos:
            page = buffer_pool.get_page(file_id, page_no, cost_factor)
            if page is not None and page.has_space():
                heap._pages_with_space.add(page_no)
        return heap

    # -- normal operations (used via the transaction manager) -----------------

    def find_insert_target(self) -> RowId:
        """Choose the address a new row will be inserted at.

        The transaction manager needs the address *before* mutating so it
        can write the log record first (write-ahead rule).
        """
        page_no = self._page_with_space()
        page = self._page(page_no, create=True)
        if page.free_slots:
            slot = page.free_slots[-1]
        else:
            slot = len(page.slots)
        return RowId(self.file_id, page_no, slot)

    def apply_insert(self, rid: RowId, row: tuple, lsn: int = 0) -> None:
        """Insert ``row`` at ``rid`` and stamp the page LSN (redo-safe)."""
        page = self._page(rid.page_no, create=True)
        page.insert_at(rid.slot, row)
        self._stamp(page, rid.page_no, lsn)

    def apply_delete(self, rid: RowId, lsn: int = 0) -> tuple:
        page = self._require_page(rid.page_no)
        row = page.delete(rid.slot)
        self._stamp(page, rid.page_no, lsn)
        self._pages_with_space.add(rid.page_no)
        return row

    def apply_update(self, rid: RowId, row: tuple, lsn: int = 0) -> tuple:
        page = self._require_page(rid.page_no)
        old = page.update(rid.slot, row)
        self._stamp(page, rid.page_no, lsn)
        return old

    def read(self, rid: RowId) -> tuple | None:
        """Return the row at ``rid`` or ``None`` if the slot is empty."""
        if rid.file_id != self.file_id:
            raise ValueError("row id belongs to a different file")
        if rid.page_no >= self.page_count:
            return None
        page = self._pool.get_page(self.file_id, rid.page_no, self.cost_factor)
        if page is None:
            return None
        return page.read(rid.slot)

    def page_lsn(self, page_no: int) -> int:
        """Page LSN for redo decisions (0 for pages that do not exist yet)."""
        if page_no >= self.page_count:
            return 0
        page = self._pool.get_page(self.file_id, page_no, self.cost_factor)
        return page.page_lsn if page is not None else 0

    def scan(self):
        """Yield ``(RowId, row)`` for every live row, page order."""
        for block in self.scan_pages():
            yield from block

    def scan_pages(self):
        """Yield each page's live rows as one block of ``(RowId, row)``.

        The batch executor consumes pages as blocks so its batch
        boundaries coincide with page-fault boundaries — any disk charge
        the pool makes happens on the pull that first needs the page.
        ``scan`` is this, flattened.

        A file larger than the pool is read cold (see
        :class:`BufferPool`): the scan recycles one frame rather than
        flushing every other table's pages, and its own resident pages
        survive to be hit by the next scan.  A cold scan also reads
        ahead: before it takes page p it asks the pool to queue reads of
        pages p .. p + ``READ_AHEAD_PAGES``, so the disk works while the
        consumer spends CPU on earlier pages.  A file that fits is almost
        always resident and is read without read-ahead.
        """
        file_id = self.file_id
        pool = self._pool
        last = self.page_count - 1
        cold = last >= pool.capacity_pages
        next_page = 0
        try:
            for page_no in range(last + 1):
                if cold:
                    pool.read_ahead(file_id, page_no,
                                    min(page_no + READ_AHEAD_PAGES, last),
                                    self.cost_factor)
                page = pool.get_page(file_id, page_no, self.cost_factor,
                                     cold)
                next_page = page_no + 1
                if page is not None:
                    yield [(RowId(file_id, page_no, slot), row)
                           for slot, row in page.rows()]
        finally:
            if cold and next_page <= last:
                pool.read_ahead_stopped(
                    file_id, next_page,
                    min(next_page - 1 + READ_AHEAD_PAGES, last))

    def count_rows(self) -> int:
        return sum(1 for _ in self.scan())

    # -- internals -----------------------------------------------------------

    def _page_with_space(self) -> int:
        for page_no in sorted(self._pages_with_space):
            page = self._page(page_no, create=False)
            if page is not None and page.has_space():
                return page_no
            self._pages_with_space.discard(page_no)
        return self.page_count  # allocate a fresh page

    def _page(self, page_no: int, create: bool) -> Page | None:
        if page_no < self.page_count:
            page = self._pool.get_page(self.file_id, page_no, self.cost_factor)
            if page is not None:
                return page
            if not create:
                return None
            # Page was allocated before a crash but never flushed; redo is
            # recreating it now.
            page = self._pool.new_page(self.file_id, page_no, self.rows_per_page)
            self._pages_with_space.add(page_no)
            return page
        if not create:
            return None
        page = self._pool.new_page(self.file_id, page_no, self.rows_per_page)
        self.page_count = page_no + 1
        self._pages_with_space.add(page_no)
        return page

    def _require_page(self, page_no: int) -> Page:
        page = self._page(page_no, create=False)
        if page is None:
            raise ValueError(
                f"file {self.file_id} page {page_no} does not exist")
        return page

    def _stamp(self, page: Page, page_no: int, lsn: int) -> None:
        if lsn:
            page.page_lsn = max(page.page_lsn, lsn)
        self._pool.mark_dirty(self.file_id, page_no, rec_lsn=lsn)
        if not page.has_space():
            self._pages_with_space.discard(page_no)
