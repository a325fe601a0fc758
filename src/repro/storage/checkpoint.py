"""Fuzzy checkpointing to per-node stable storage.

Each slave periodically walks its pages and persists ``(page image,
version)`` pairs; a flush of one page with its version is atomic, but the
checkpoint as a whole is *fuzzy*: it needs no quiescence and different
pages may be captured at different versions.  That is safe precisely
because Dynamic Multiversioning already tolerates pages at heterogeneous
versions — a recovering node asks a support slave only for pages *newer*
than its checkpointed versions.

``StableStore`` stands in for the node's local disk: it survives the loss
of the node's in-memory state (our failure injection wipes the
:class:`~repro.storage.page.PageStore` but keeps the stable store).

Durability hardening: every image carries a CRC32 checksum, and the store
keeps the *previous* good image of each page as a fallback generation.
:meth:`StableStore.recover_into` validates checksums on the restart path
and falls back to the previous generation when the current image is
corrupt; file persistence (:meth:`save_to`) publishes atomically via
rename and retains the prior file at ``<path>.prev`` so
:meth:`load_from` can fall back to the last good generation instead of
aborting recovery.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.common.counters import Counters
from repro.common.errors import CorruptCheckpoint
from repro.common.ids import PageId, page_id_of
from repro.storage.page import Page, PageStore


def _page_checksum(page: Page) -> int:
    payload = repr((str(page.page_id), page.version, tuple(page.slots)))
    return zlib.crc32(payload.encode("utf-8")) or 1


@dataclass(frozen=True, slots=True)
class PageImage:
    """An atomically flushed copy of one page plus its version.

    Frozen, and so shared as it is: by the replicas set up as copies of
    one node, and by a support slave and the joiner it ships pages to.
    """

    page_id: PageId
    version: int
    page: Page  # a snapshot: its slots are a frozen tuple, and nobody writes it
    checksum: int = 0  # 0 = unchecked (legacy image); else CRC32 of content

    def verify(self) -> bool:
        """True if the image content matches its checksum (0 = always)."""
        if self.checksum == 0:
            return True
        return self.checksum == _page_checksum(self.page)


class StableStore:
    """Per-node durable page-image store (local-disk stand-in)."""

    def __init__(self, counters: Optional[Counters] = None) -> None:
        self._images: Dict[PageId, PageImage] = {}
        self._previous: Dict[PageId, PageImage] = {}  # last good generation
        self.counters = counters if counters is not None else Counters()
        self.flushes = 0

    def flush_page(self, page: Page) -> None:
        """Atomically persist one page image with its current version.

        The image it replaces is retained as the page's previous
        generation, the fallback when the current image is later found
        corrupt on the recovery path.
        """
        snapshot = page.snapshot()
        current = self._images.get(page.page_id)
        if current is not None:
            self._previous[page.page_id] = current
        self._images[page.page_id] = PageImage(
            page.page_id, snapshot.version, snapshot, _page_checksum(snapshot)
        )
        self.flushes += 1
        self.counters.add("checkpoint.pages_flushed")
        self.counters.add("checkpoint.bytes", snapshot.byte_size())

    def copy_from(self, source: "StableStore") -> int:
        """An empty store adopts ``source``'s images as if it had flushed them.

        For a replica set up as a copy of ``source``'s node: the image
        objects themselves are shared (they are frozen; ``corrupt_page``
        replaces one rather than changing it), in ``source``'s order, and
        this store's counters move as ``source``'s flushes moved its own.
        Returns the flush count.
        """
        if self._images or self._previous or self.flushes:
            raise ValueError("only an empty stable store can adopt another's images")
        self._images.update(source._images)
        self._previous.update(source._previous)
        self.flushes = source.flushes
        if self.flushes:
            for name in ("checkpoint.pages_flushed", "checkpoint.bytes"):
                self.counters.add(name, source.counters.get(name))
        return self.flushes

    def load(self, page_id: PageId) -> Optional[PageImage]:
        return self._images.get(page_id)

    def version_map(self) -> Dict[PageId, int]:
        """Per-page checkpointed versions — the recovery handshake payload."""
        return {pid: image.version for pid, image in self._images.items()}

    def corrupt_page(self, page_id: PageId) -> bool:
        """Flip a bit in the current image of ``page_id`` (fault injection).

        Latent: only :meth:`recover_into` / checksum validation observes
        it.  Returns True if an image existed to corrupt.
        """
        image = self._images.get(page_id)
        if image is None:
            return False
        self._images[page_id] = replace(image, checksum=(image.checksum ^ 0xA5) or 1)
        return True

    def restore_into(self, store: PageStore) -> int:
        """Rebuild a page store from the checkpoint (node restart path)."""
        count = 0
        for image in sorted(self._images.values(), key=lambda i: i.page_id):
            page = store.get_or_allocate(image.page_id)
            page.load_from(image.page)
            count += 1
        return count

    def recover_into(self, store: PageStore) -> Tuple[int, int, int]:
        """Checksum-validated restore with previous-generation fallback.

        For each page: a corrupt current image falls back to the previous
        good generation; if both generations are bad the page is skipped
        entirely (left unallocated/at version 0) so peer migration
        re-fetches it.  Returns ``(pages_restored, bytes_read,
        corrupt_pages)``.
        """
        restored = nbytes = corrupt = 0
        for page_id in sorted(self._images):
            image = self._images[page_id]
            if not image.verify():
                corrupt += 1
                self.counters.add("checkpoint.corrupt_pages")
                image = self._previous.get(page_id)
                if image is None or not image.verify():
                    continue  # both generations bad: migration re-fetches
                self.counters.add("checkpoint.fallback_pages")
            page = store.get_or_allocate(image.page_id)
            page.load_from(image.page)
            restored += 1
            nbytes += image.page.byte_size()
        return restored, nbytes, corrupt

    def __len__(self) -> int:
        return len(self._images)

    # -- file persistence (embedded-library durability) ---------------------------
    def save_to(self, path: str) -> int:
        """Persist every checkpointed page image to ``path`` (JSON lines).

        The publish is atomic rename-style: content is written to a temp
        file and renamed over the target, so a crash mid-save leaves the
        previous checkpoint intact.  The file it replaces is retained at
        ``<path>.prev`` as the last good generation for
        :meth:`load_from`'s corruption fallback.  Each line carries a CRC32
        of its payload.  Returns the number of pages written.
        """
        temp = f"{path}.tmp"
        with open(temp, "w", encoding="utf-8") as fh:
            for image in sorted(self._images.values(), key=lambda i: i.page_id):
                record = {
                    "table": image.page_id.table,
                    "number": image.page_id.number,
                    "version": image.version,
                    "capacity": image.page.capacity,
                    "slots": [list(r) if r is not None else None for r in image.page.slots],
                }
                payload = json.dumps(record, sort_keys=True)
                record["crc"] = zlib.crc32(payload.encode("utf-8"))
                fh.write(json.dumps(record))
                fh.write("\n")
        if os.path.exists(path):
            os.replace(path, f"{path}.prev")
        os.replace(temp, path)
        return len(self._images)

    @classmethod
    def load_from(cls, path: str, counters: Optional[Counters] = None) -> "StableStore":
        """Rebuild a stable store from a :meth:`save_to` file.

        A corrupt current file (bad JSON, missing fields, failed line CRC)
        falls back to the previous good generation at ``<path>.prev``;
        only when that too is missing or corrupt does the
        :class:`~repro.common.errors.CorruptCheckpoint` propagate.
        """
        try:
            return cls._load_file(path, counters)
        except CorruptCheckpoint:
            previous = f"{path}.prev"
            if not os.path.exists(previous):
                raise
            store = cls._load_file(previous, counters)
            store.counters.add("checkpoint.fallback_loads")
            return store

    @classmethod
    def _load_file(cls, path: str, counters: Optional[Counters] = None) -> "StableStore":
        store = cls(counters)
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    crc = record.pop("crc", None)
                    if crc is not None:
                        payload = json.dumps(record, sort_keys=True)
                        if crc != zlib.crc32(payload.encode("utf-8")):
                            raise ValueError("line checksum mismatch")
                    page_id = page_id_of(record["table"], record["number"])
                    page = Page(page_id, capacity=record["capacity"], version=record["version"])
                    for slot, row in enumerate(record["slots"]):
                        if row is not None:
                            page.put(slot, tuple(row))
                except (KeyError, ValueError, TypeError) as exc:
                    raise CorruptCheckpoint(
                        f"corrupt checkpoint file {path} at line {line_no}: {exc}"
                    ) from exc
                image = page.snapshot()
                store._images[page_id] = PageImage(
                    page_id, image.version, image, _page_checksum(image)
                )
        return store


class FuzzyCheckpointer:
    """Walks a page store in rounds, flushing dirty-committed pages.

    ``dirty_filter`` lets the caller exclude pages with uncommitted
    modifications (the paper excludes written-but-not-committed pages);
    the engine passes a predicate backed by its lock table.
    """

    def __init__(
        self,
        store: PageStore,
        stable: StableStore,
        pages_per_round: int = 0,
    ) -> None:
        self.store = store
        self.stable = stable
        self.pages_per_round = pages_per_round  # 0 means "all pages each round"
        self._cursor: List[PageId] = []

    def checkpoint_round(self, skip_page) -> Tuple[int, int]:
        """Flush the next batch of pages.

        ``skip_page(page)`` returns True for pages that must not be flushed
        (uncommitted data).  Returns ``(flushed, skipped)``.
        """
        if not self._cursor:
            self._cursor = [page.page_id for page in self.store.all_pages()]
        batch_size = self.pages_per_round or len(self._cursor)
        batch, self._cursor = self._cursor[:batch_size], self._cursor[batch_size:]
        flushed = skipped = 0
        for page_id in batch:
            if not self.store.contains(page_id):
                continue
            page = self.store.get(page_id)
            if skip_page(page):
                skipped += 1
                continue
            previous = self.stable.load(page_id)
            if previous is not None and previous.version == page.version:
                continue  # unchanged since last checkpoint
            self.stable.flush_page(page)
            flushed += 1
        return flushed, skipped

    def copy_from(self, source: "FuzzyCheckpointer") -> int:
        """Adopt the checkpoint ``source`` took of an identical page store."""
        self._cursor = list(source._cursor)
        return self.stable.copy_from(source.stable)

    def full_checkpoint(self, skip_page) -> int:
        """Flush every eligible page once; returns pages flushed."""
        self._cursor = []
        total = 0
        while True:
            flushed, _skipped = self.checkpoint_round(skip_page)
            total += flushed
            if not self._cursor:
                return total
