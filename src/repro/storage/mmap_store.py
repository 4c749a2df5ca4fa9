"""Zero-copy memory-mapped sketch store (the disk deployment's fast path).

The SQLite store pays a per-record cost at read time: every window record is
``SELECT``-ed, its blobs are copied out of the database pages, and the packed
upper-triangle pair matrix is re-inflated into a fresh ``(n, n)`` array. For
a read-mostly sketch (the paper's historical deployment: write once at
ingestion, query forever) none of that work is necessary — the sketch is just
four fixed-shape numeric arrays.

:class:`MmapStore` therefore lays the window records out as contiguous
little-endian arrays in a directory::

    meta.json     -- JSON sidecar: layout version, n_series, collection meta
    means.f64     -- float64, shape (n_windows, n)
    stds.f64      -- float64, shape (n_windows, n)
    pairs.f64     -- float64, shape (n_windows, n, n)
    sizes.i64     -- int64,   shape (n_windows,)   (0 marks an unwritten slot)

Reads are served straight from read-only ``numpy.memmap`` views: no SQL, no
blob copies, no per-record deserialization — the OS page cache is the read
buffer, and a query touches exactly the bytes it consumes. The dedicated
:class:`~repro.engine.providers.MmapProvider` slices these arrays directly
into the Lemma 1 kernels; :class:`MmapStore` also implements the full
:class:`~repro.storage.base.SketchStore` contract so every generic code path
(``save_sketch``, ``StoreProvider``, ``tsubasa convert``) runs unchanged.
"""

from __future__ import annotations

import json
import mmap
import os
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import StorageError
from repro.storage.base import SketchStore, StoreMetadata, WindowRecord

if TYPE_CHECKING:
    from repro.core.prefix import PrefixAggregates

__all__ = ["MmapStore", "is_mmap_store"]

_FORMAT_VERSION = 1
_META_FILE = "meta.json"
_ARRAY_FILES = {
    "means": "means.f64",
    "stds": "stds.f64",
    "pairs": "pairs.f64",
    "sizes": "sizes.i64",
}
#: Optional prefix-aggregate tables (see :mod:`repro.core.prefix`): row ``k``
#: holds cumulative offset-centered Lemma 1 moments over windows ``[0, k)``,
#: so a contiguous range query is two row reads and a subtraction. ``rows``
#: in the sidecar's ``prefix`` entry counts the committed rows; everything
#: past it is stale or unwritten.
_PREFIX_FILES = {
    "prefix_offsets": "prefix_offsets.f64",
    "prefix_count": "prefix_count.f64",
    "prefix_first": "prefix_first.f64",
    "prefix_second": "prefix_second.f64",
    "prefix_cross": "prefix_cross.f64",
}


def is_mmap_store(path: str | Path) -> bool:
    """Whether ``path`` looks like an :class:`MmapStore` directory."""
    return (Path(path) / _META_FILE).is_file()


class MmapStore(SketchStore):
    """Sketch store over contiguous memory-mapped arrays.

    Args:
        path: Store directory; created (with parents) unless opened
            read-only.
        mode: ``"r+"`` (default) opens for reading and writing, creating the
            directory if needed; ``"r"`` opens an existing store read-only
            (what :class:`~repro.engine.providers.MmapProvider` does when
            given a path).

    The number of series is fixed by the first metadata or window write and
    enforced thereafter. Window slots are committed sizes-last, so a record
    with ``sizes[j] == 0`` (the unwritten sentinel; real windows are never
    empty) is reported missing rather than returned half-written.

    **Durability and concurrent readers.** Records are written with
    ``pwrite`` and each array file is fsync'ed before the next one is
    touched: ``means``, ``stds`` and ``pairs`` first, ``sizes.i64`` last.
    ``sizes.i64`` therefore defines the store's capacity; the data files may
    run *ahead* of it after an interrupted append (their trailing bytes are
    never mapped, and :meth:`trim` reclaims them), but never behind it. The
    JSON sidecar is replaced atomically (write to a temp file, fsync,
    rename, fsync the directory) and carries a monotonically increasing
    *generation counter* that publishes each commit:

    * A batch that **overwrites** a committed record is bracketed
      seqlock-style: the generation is bumped to an **odd** value before the
      first data byte is written and back to **even** once the batch (and
      its sizes) are durable.
    * A **pure append** (every slot in the batch uncommitted: ``sizes == 0``
      or past capacity) touches no committed byte, so it skips the odd
      opening and publishes the next even generation in one sidecar write
      once its records are durable. A reader asking for one of its slots
      mid-append gets "missing" straight away, not a wait.

    A reader in another process detects a concurrent commit by sampling
    :meth:`read_generation` around its reads — an odd sample means an
    overwrite is in progress, and a changed sample means a writer committed
    during the read (either way the read may be torn and should be
    retried)::

        g0 = store.read_generation()
        records = store.read_windows(indices)
        if g0 % 2 == 1 or store.read_generation() != g0:
            ...  # concurrent write; retry
    """

    def __init__(self, path: str | Path, mode: str = "r+") -> None:
        if mode not in ("r", "r+"):
            raise StorageError(f"mode must be 'r' or 'r+', got {mode!r}")
        self._dir = Path(path)
        self._mode = mode
        # Pathlib arithmetic is a measurable share of a cold open; build
        # every file path exactly once.
        self._meta_path = self._dir / _META_FILE
        self._files = {
            name: self._dir / filename for name, filename in _ARRAY_FILES.items()
        }
        self._prefix_files = {
            name: self._dir / filename for name, filename in _PREFIX_FILES.items()
        }
        self._n: int | None = None
        self._generation = 0
        self._prefix_rows = 0
        self._collection: StoreMetadata | None = None
        self._read_maps: dict[str, np.ndarray] | None = None
        has_meta = self._meta_path.is_file()
        if mode == "r":
            if not has_meta:
                raise StorageError(
                    f"{self._dir} is not an mmap sketch store (no {_META_FILE})"
                )
        else:
            try:
                self._dir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise StorageError(
                    f"cannot create mmap store directory {self._dir}: {exc}"
                ) from exc
        if has_meta:
            self._load_meta()

    # -- sidecar metadata ----------------------------------------------------

    def _load_meta(self) -> None:
        try:
            payload = json.loads(self._meta_path.read_text())
        except (OSError, ValueError) as exc:
            raise StorageError(
                f"cannot read mmap store metadata in {self._dir}: {exc}"
            ) from exc
        if payload.get("version") != _FORMAT_VERSION:
            raise StorageError(
                f"unsupported mmap store version {payload.get('version')!r} "
                f"in {self._dir} (expected {_FORMAT_VERSION})"
            )
        self._n = int(payload["n_series"]) if payload.get("n_series") else None
        # Stores written before the generation counter existed read as 0.
        self._generation = int(payload.get("generation", 0))
        # Stores without prefix tables (or written before they existed) read
        # as 0 committed prefix rows.
        self._prefix_rows = int((payload.get("prefix") or {}).get("rows", 0))
        collection = payload.get("collection")
        if collection is not None:
            self._collection = StoreMetadata(
                names=tuple(collection["names"]),
                window_size=int(collection["window_size"]),
                kind=collection["kind"],
                n_coeffs=int(collection["n_coeffs"]),
            )

    def _save_meta(self) -> None:
        collection = None
        if self._collection is not None:
            collection = {
                "names": list(self._collection.names),
                "window_size": self._collection.window_size,
                "kind": self._collection.kind,
                "n_coeffs": self._collection.n_coeffs,
            }
        payload = {
            "version": _FORMAT_VERSION,
            "n_series": self._n,
            "generation": self._generation,
            "prefix": {"rows": self._prefix_rows},
            "collection": collection,
        }
        # Atomic replace behind an fsync barrier: a reader (or a crash
        # recovery) sees either the old sidecar or the new one, never a
        # truncated mix, and the rename is durable once the directory entry
        # is synced.
        tmp_path = self._meta_path.with_suffix(".json.tmp")
        fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            # Compact on purpose: with ``indent`` json falls back to its
            # pure-Python encoder, a measurable share of an append.
            os.write(fd, (json.dumps(payload) + "\n").encode())
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp_path, self._meta_path)
        self._fsync_dir()

    def _fsync_dir(self) -> None:
        """Flush the store directory's entries (rename/truncate durability)."""
        try:
            fd = os.open(self._dir, os.O_RDONLY)
        except OSError:
            return  # e.g. platforms without directory fds; best effort
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _sync_meta(self) -> None:
        """Fold the on-disk sidecar into this handle before rewriting it.

        A second writer handle (or another process) may have committed
        since this handle loaded its sidecar. Every sidecar rewrite saves
        this handle's full in-memory view, so a stale handle would both
        *regress* the published generation (masking commits from readers)
        and clobber collection metadata another handle wrote. Reloading
        and merging — newest generation wins, this handle's collection
        wins only where it has one — keeps sequential use of multiple
        handles safe. (Truly simultaneous writers remain out of scope:
        the store is single-writer by design.)
        """
        if not self._meta_path.is_file():
            return  # first-ever write; nothing on disk to fold in
        mine_n = self._n
        mine_collection = self._collection
        mine_generation = self._generation
        mine_prefix_rows = self._prefix_rows
        try:
            self._load_meta()
        except StorageError:
            # Unreadable sidecar: keep this handle's view (the rewrite is
            # the recovery).
            self._n = mine_n
            self._collection = mine_collection
            self._generation = mine_generation
            self._prefix_rows = mine_prefix_rows
            return
        self._generation = max(self._generation, mine_generation)
        if mine_collection is not None:
            self._collection = mine_collection
        if mine_n is not None:
            if self._n is not None and self._n != mine_n:
                raise StorageError(
                    f"store {self._dir} holds {self._n}-series records, "
                    f"this handle was writing {mine_n}"
                )
            self._n = mine_n

    def _begin_commit(self, prefix_rows_cap: int | None = None) -> None:
        """Open the seqlock: advance the generation to the next odd value.

        Published (fsync'ed) *before* any record byte is written, so a
        concurrent reader sampling an odd generation knows the arrays may
        be torn mid-overwrite — the sizes-last sentinel only protects
        never-written slots, not rewrites of existing records.

        The parity is computed, not accumulated: if an earlier commit
        failed or crashed between begin and finish (leaving an odd value at
        rest — correctly flagging possibly-torn data), the next commit
        still opens odd and closes even instead of inverting the protocol.

        Args:
            prefix_rows_cap: When the commit is about to (over)write window
                records at indices ``>= prefix_rows_cap - 1``, prefix rows
                past the cap describe sums over records that are changing —
                truncate them *in the opening sidecar write*, so even a
                crash mid-batch never leaves stale prefix rows published
                over rewritten records.
        """
        self._sync_meta()
        if prefix_rows_cap is not None and self._prefix_rows > prefix_rows_cap:
            self._prefix_rows = prefix_rows_cap
        self._generation += 1 + (self._generation % 2)
        self._save_meta()

    def _finish_commit(self) -> None:
        """Publish a commit: advance the generation to the next even value.

        Called after the batch's data and sizes are fsync'ed; the sidecar
        replace (itself fsync'ed) publishes the new generation, so an even
        ``generation`` only ever advances past fully durable data. It closes
        an overwrite's odd bracket, and is the whole publication of a pure
        append (even to even, or clearing an odd value an interrupted
        overwrite left at rest, as any completed record batch does).
        """
        self._generation += 2 - (self._generation % 2)
        self._save_meta()

    def _require_writable(self) -> None:
        if self._mode == "r":
            raise StorageError(f"mmap store {self._dir} is open read-only")

    def _set_n_series(self, n: int) -> None:
        if self._n is None:
            # Another handle may have fixed the series count (and advanced
            # the generation) since this one opened; fold that in rather
            # than publishing a stale sidecar.
            self._sync_meta()
        if self._n is None:
            self._n = int(n)
            self._save_meta()
        elif self._n != n:
            raise StorageError(
                f"store {self._dir} holds {self._n}-series records, got {n}"
            )

    # -- array files ---------------------------------------------------------

    @property
    def path(self) -> str:
        """Store directory path (workers re-mmap through it)."""
        return str(self._dir)

    @property
    def n_series(self) -> int | None:
        """Number of series per record, or ``None`` before the first write."""
        return self._n

    @property
    def generation(self) -> int:
        """Commit counter as of this handle's last load or write.

        A writer's own handle tracks its commits; a *reader* polling for
        another process's writes should use :meth:`read_generation`, which
        re-reads the sidecar from disk.
        """
        return self._generation

    def read_generation(self) -> int:
        """Re-read the commit counter from the on-disk sidecar.

        Sampling this before and after a batch of reads detects a
        concurrent writer: an **odd** value means a ``write_windows`` batch
        is in progress right now, and unequal samples mean a commit landed
        in between — either way the read may be torn and should be retried
        (see the class docstring for the pattern). Stores written before
        the counter existed report 0.
        """
        try:
            payload = json.loads(self._meta_path.read_text())
        except (OSError, ValueError) as exc:
            raise StorageError(
                f"cannot read mmap store metadata in {self._dir}: {exc}"
            ) from exc
        return int(payload.get("generation", 0))

    def _capacity(self) -> int:
        try:
            return self._files["sizes"].stat().st_size // 8
        except OSError:
            return 0

    def _shapes(self, capacity: int) -> dict[str, tuple[int, ...]]:
        assert self._n is not None
        n = self._n
        return {
            "means": (capacity, n),
            "stds": (capacity, n),
            "pairs": (capacity, n, n),
            "sizes": (capacity,),
        }

    def _dtype(self, name: str) -> str:
        return "<i8" if name == "sizes" else "<f8"

    def _open_maps(self) -> dict[str, np.ndarray]:
        """Map the first ``capacity`` records of every array file read-only.

        ``sizes.i64`` defines the capacity. A data file may be *longer* than
        that — an append interrupted after its data fsync but before its
        sizes write leaves the data running ahead — and only its
        ``capacity`` prefix is mapped. A data file *shorter* than capacity
        cannot come from any commit order and is rejected as corrupt.
        """
        capacity = self._capacity()
        if capacity == 0 or self._n is None:
            raise StorageError(f"mmap store {self._dir} holds no window records")
        shapes = self._shapes(capacity)
        maps: dict[str, np.ndarray] = {}
        for name, file_path in self._files.items():
            expected = 8 * int(np.prod(shapes[name]))
            try:
                size = file_path.stat().st_size
            except OSError:
                size = -1
            if size < expected:
                raise StorageError(
                    f"mmap store array {file_path} is missing or has the "
                    f"wrong size (expected at least {expected} bytes)"
                )
            # Raw mmap + frombuffer instead of np.memmap: ~5x cheaper to
            # construct, which is most of a cold query's latency budget.
            # The arrays are read-only views over the mapping (the mmap
            # object stays alive through .base).
            fd = os.open(file_path, os.O_RDONLY)
            try:
                buf = mmap.mmap(fd, expected, access=mmap.ACCESS_READ)
            finally:
                os.close(fd)
            maps[name] = np.frombuffer(buf, dtype=self._dtype(name)).reshape(
                shapes[name]
            )
        return maps

    def _stale(self, maps: dict[str, np.ndarray] | None) -> bool:
        """Whether cached maps no longer cover the files' current capacity.

        An append from another handle (or process) extends ``sizes.i64``;
        mappings made before that only cover the old capacity, so indexing
        a newly appended record through them would fail even though the
        fresh capacity check passed. Re-stat and remap instead —
        outstanding record views stay valid, they keep the old mapping
        alive through their ``.base``.
        """
        return maps is not None and maps["sizes"].shape[0] != self._capacity()

    def _readable(self) -> dict[str, np.ndarray]:
        if self._read_maps is None or self._stale(self._read_maps):
            self._read_maps = None
            self._read_maps = self._open_maps()
        return self._read_maps

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The store's raw arrays as read-only memmap views.

        Returns:
            ``(means, stds, pairs, sizes)`` of shapes ``(nw, n)``,
            ``(nw, n)``, ``(nw, n, n)``, ``(nw,)`` — the zero-copy substrate
            :class:`~repro.engine.providers.MmapProvider` slices from.
        """
        maps = self._readable()
        return maps["means"], maps["stds"], maps["pairs"], maps["sizes"]

    # -- prefix-aggregate tables ---------------------------------------------

    @property
    def prefix_rows(self) -> int:
        """Committed prefix-table rows (0 = no prefix tables).

        ``rows`` valid rows cover basic windows ``[0, rows - 1)``; a store
        needs ``rows >= 2`` before any range can be answered from the
        tables.
        """
        return self._prefix_rows

    def _prefix_shapes(self, capacity: int) -> dict[str, tuple[int, ...]]:
        assert self._n is not None
        n = self._n
        return {
            "prefix_offsets": (n,),
            "prefix_count": (capacity + 1,),
            "prefix_first": (capacity + 1, n),
            "prefix_second": (capacity + 1, n),
            "prefix_cross": (capacity + 1, n, n),
        }

    def build_prefix(self, chunk_windows: int = 256) -> int:
        """Build — or incrementally extend — the persisted prefix tables.

        Streams the committed window records (the contiguous run from
        window 0) into cumulative offset-centered Lemma 1 aggregates
        (:mod:`repro.core.prefix`), picking up from the last committed
        prefix row, so re-running after an append only processes the new
        windows. The whole write runs behind the store's fsync/generation
        barrier like any record batch. The per-series centering offsets are
        fixed by the first build and reused by every extension.

        Args:
            chunk_windows: Window records folded per streaming step.

        Returns:
            The number of basic windows the tables now cover.
        """
        from repro.core.prefix import PrefixAggregates

        self._require_writable()
        if chunk_windows <= 0:
            raise StorageError("chunk_windows must be positive")
        capacity = self._capacity()
        if capacity == 0 or self._n is None:
            raise StorageError(f"mmap store {self._dir} holds no window records")
        maps = self._readable()
        sizes = maps["sizes"]
        # The tables cover the contiguous committed run from window 0 —
        # a hole (sizes == 0) ends what any prefix row may aggregate.
        holes = np.nonzero(np.asarray(sizes) == 0)[0]
        committed = int(holes[0]) if holes.size else int(sizes.size)
        if committed == 0:
            raise StorageError(
                f"mmap store {self._dir} holds no committed window records"
            )
        self._sync_meta()
        if self._prefix_rows >= committed + 1:
            return committed  # already covers every committed window
        self._begin_commit()
        shapes = self._prefix_shapes(capacity)
        for name, file_path in self._prefix_files.items():
            # ftruncate grows zero-filled, preserving committed rows; the
            # fsync makes the new length durable before rows are written.
            fd = os.open(file_path, os.O_RDWR | os.O_CREAT, 0o644)
            try:
                os.ftruncate(fd, 8 * int(np.prod(shapes[name], dtype=np.int64)))
                os.fsync(fd)
            finally:
                os.close(fd)
        self._fsync_dir()
        tables = {
            name: np.memmap(
                file_path, dtype="<f8", mode="r+", shape=shapes[name]
            )
            for name, file_path in self._prefix_files.items()
        }
        rows = self._prefix_rows
        if rows == 0:
            # First build fixes the centering offsets: the weighted grand
            # mean of the committed windows (exact for any choice; this one
            # minimizes cancellation for stationary series). Row 0 is the
            # zero row — already zero pages from the truncate.
            weights = np.asarray(sizes[:committed], dtype=np.float64)
            tables["prefix_offsets"][:] = (
                np.asarray(maps["means"][:committed]).T @ weights
            ) / float(weights.sum())
            rows = 1
        aggregates = PrefixAggregates(
            offsets=np.asarray(tables["prefix_offsets"]),
            count=tables["prefix_count"],
            first=tables["prefix_first"],
            second=tables["prefix_second"],
            cross=tables["prefix_cross"],
            rows=rows,
        )
        for start in range(rows - 1, committed, chunk_windows):
            stop = min(start + chunk_windows, committed)
            aggregates.extend(
                np.asarray(maps["means"][start:stop]).T,
                np.asarray(maps["stds"][start:stop]).T,
                np.asarray(maps["pairs"][start:stop]),
                np.asarray(sizes[start:stop], dtype=np.float64),
            )
        tables["prefix_offsets"].flush()
        for name in (
            "prefix_count", "prefix_first", "prefix_second", "prefix_cross"
        ):
            self._flush_records(tables[name], max(rows - 1, 0), aggregates.rows)
        del aggregates, tables
        self._prefix_rows = committed + 1
        self._finish_commit()
        return committed

    def read_prefix(self) -> "PrefixAggregates | None":
        """The committed prefix tables as read-only zero-copy views.

        Returns:
            A :class:`~repro.core.prefix.PrefixAggregates` whose arrays are
            read-only mappings of the ``prefix_*`` files (a range query
            touches only the pages of the two rows it reads), or ``None``
            when the store has no usable prefix tables (``prefix_rows <
            2``).

        Raises:
            StorageError: When the sidecar advertises prefix rows but the
                table files are missing or shorter than the committed rows.
        """
        from repro.core.prefix import PrefixAggregates

        rows = self._prefix_rows
        if rows < 2 or self._n is None:
            return None
        n = self._n
        flats: dict[str, np.ndarray] = {}
        for name, file_path in self._prefix_files.items():
            try:
                size = file_path.stat().st_size
            except OSError:
                size = 0
            if size <= 0 or size % 8:
                raise StorageError(
                    f"prefix table {file_path} is missing or truncated "
                    f"({rows} rows are committed)"
                )
            fd = os.open(file_path, os.O_RDONLY)
            try:
                buf = mmap.mmap(fd, size, access=mmap.ACCESS_READ)
            finally:
                os.close(fd)
            flats[name] = np.frombuffer(buf, dtype="<f8")
        offsets = flats["prefix_offsets"]
        first = flats["prefix_first"]
        second = flats["prefix_second"]
        cross = flats["prefix_cross"]
        if (
            offsets.size != n
            or first.size % n
            or second.size % n
            or cross.size % (n * n)
        ):
            raise StorageError(
                f"prefix tables in {self._dir} do not match {n} series"
            )
        aggregates_rows = min(
            flats["prefix_count"].size,
            first.size // n,
            second.size // n,
            cross.size // (n * n),
        )
        if aggregates_rows < rows:
            raise StorageError(
                f"prefix tables in {self._dir} hold {aggregates_rows} rows, "
                f"but {rows} are committed"
            )
        # Trim every table to the shortest file's row count so the
        # dataclass's shape validation holds even when a capacity-growing
        # append resized some files before a rebuild.
        return PrefixAggregates(
            offsets=offsets,
            count=flats["prefix_count"][:aggregates_rows],
            first=first.reshape(-1, n)[:aggregates_rows],
            second=second.reshape(-1, n)[:aggregates_rows],
            cross=cross.reshape(-1, n, n)[:aggregates_rows],
            rows=rows,
        )

    def trim(self) -> int:
        """Compact the store: drop trailing unwritten (or stale) capacity.

        Array files can hold more than the committed records: an append
        interrupted before its sizes write leaves the data files running
        ahead of ``sizes.i64``, stores written by earlier versions of this
        module grew every file ahead of the records, and ``prefix_*`` tables
        are sized for the capacity they were built at. ``trim`` truncates
        all of them back to the last committed record, running behind the
        same fsync/generation barrier as an overwriting record batch, so
        concurrent readers observe either the old capacity or the new one —
        never a half-truncated store.

        Interior holes (unwritten slots *below* the last committed record)
        are preserved: window indices are semantic, and renumbering them
        would change what every query means. Committed prefix rows always
        cover a contiguous run from window 0, so they survive unchanged.

        Returns:
            The number of bytes reclaimed (0 when the store is already
            compact).

        Raises:
            StorageError: On a read-only handle or a store with no record
                arrays.
        """
        self._require_writable()
        capacity = self._capacity()
        if capacity == 0 or self._n is None:
            raise StorageError(f"mmap store {self._dir} holds no window records")
        sizes = np.asarray(self._readable()["sizes"])
        written = np.nonzero(sizes)[0]
        committed = int(written[-1]) + 1 if written.size else 0
        has_prefix_files = any(
            file_path.exists() for file_path in self._prefix_files.values()
        )
        before = self.size_bytes()
        expected = {
            name: 8 * int(np.prod(shape, dtype=np.int64))
            for name, shape in self._shapes(capacity).items()
        }
        if has_prefix_files:
            for name, shape in self._prefix_shapes(capacity).items():
                expected[name] = 8 * int(np.prod(shape, dtype=np.int64))
        oversized = any(
            file_path.exists() and file_path.stat().st_size > expected[name]
            for name, file_path in (
                *self._files.items(),
                *(self._prefix_files.items() if has_prefix_files else ()),
            )
        )
        if committed == capacity and not oversized:
            return 0
        self._begin_commit()
        self._read_maps = None
        shapes = dict(self._shapes(committed))
        if has_prefix_files:
            # Prefix tables are sized capacity+1 rows; committed rows (a
            # prefix of the committed run) always fit the trimmed size.
            shapes.update(self._prefix_shapes(committed))
        targets = dict(self._files)
        if has_prefix_files:
            targets.update(self._prefix_files)
        for name, file_path in targets.items():
            if name in self._prefix_files and not file_path.exists():
                continue
            fd = os.open(file_path, os.O_RDWR | os.O_CREAT, 0o644)
            try:
                os.ftruncate(
                    fd, 8 * int(np.prod(shapes[name], dtype=np.int64))
                )
                os.fsync(fd)
            finally:
                os.close(fd)
        self._fsync_dir()
        self._finish_commit()
        return before - self.size_bytes()

    # -- SketchStore contract ------------------------------------------------

    def write_metadata(self, metadata: StoreMetadata) -> None:
        self._require_writable()
        self._set_n_series(len(metadata.names))
        self._collection = metadata
        # The sidecar replace is atomic, so no odd intermediate state is
        # needed — advance by a whole commit, preserving parity: if an
        # interrupted batch left the store flagged odd (possibly torn
        # records), only a *completed* record commit may publish even again.
        self._sync_meta()
        self._generation += 2
        self._save_meta()

    def read_metadata(self) -> StoreMetadata:
        if self._collection is None:
            raise StorageError(f"no metadata in mmap store {self._dir}")
        return self._collection

    def write_windows(self, records: list[WindowRecord]) -> None:
        self._require_writable()
        if not records:
            return
        for record in records:
            means = np.asarray(record.means, dtype=np.float64)
            if means.ndim != 1:
                raise StorageError(
                    f"window record means must be 1-D, got shape {means.shape}"
                )
            self._set_n_series(means.size)
            n = self._n
            if np.asarray(record.stds).shape != (n,):
                raise StorageError(
                    f"window record {record.index} stds shape "
                    f"{np.asarray(record.stds).shape} != ({n},)"
                )
            if np.asarray(record.pairs).shape != (n, n):
                raise StorageError(
                    f"window record {record.index} pairs shape "
                    f"{np.asarray(record.pairs).shape} != ({n}, {n})"
                )
            if record.index < 0:
                raise StorageError(f"negative window index {record.index}")
            if record.size <= 0:
                raise StorageError(
                    f"window record {record.index} has non-positive size "
                    f"{record.size}"
                )
        # Later records win on duplicate indices, as sequential writes would.
        batch = sorted({record.index: record for record in records}.items())
        lo = batch[0][0]
        capacity = self._capacity()
        inside = [j for j, _ in batch if j < capacity]
        overwrite = bool(inside) and bool(
            np.any(self._readable()["sizes"][inside])
        )
        if overwrite:
            # Committed bytes are about to change under concurrent readers:
            # open the seqlock. Prefix rows past lo+1 aggregate records this
            # batch is rewriting; truncating them inside the opening commit
            # keeps readers from ever combining stale cumulative sums with
            # the new records. A pure append needs neither: committed prefix
            # rows never cover an unwritten slot.
            self._begin_commit(prefix_rows_cap=lo + 1)
        else:
            self._sync_meta()
        # Sizes last, behind the data files' fsyncs: a crash — process or
        # system — leaves a half-written record with sizes[j] == 0 (or past
        # capacity), which readers treat as missing rather than serving
        # partial data.
        created = False
        for name in ("means", "stds", "pairs"):
            created |= self._write_rows(
                name, [(j, getattr(record, name)) for j, record in batch]
            )
        if created:
            self._fsync_dir()  # new data files outlive a crash before sizes
        self._write_rows("sizes", [(j, record.size) for j, record in batch])
        self._finish_commit()

    def _write_rows(self, name: str, rows: list[tuple[int, object]]) -> bool:
        """Write ``(index, row)`` records into one array file, then fsync it.

        ``pwrite`` past the end extends the file itself (skipped slots read
        back as zeros, the sizes sentinel for "missing"), so an append needs
        no truncate and no remap.

        Returns:
            Whether the file had to be created.
        """
        file_path = self._files[name]
        created = False
        try:
            fd = os.open(file_path, os.O_WRONLY)
        except FileNotFoundError:
            fd = os.open(file_path, os.O_WRONLY | os.O_CREAT, 0o644)
            created = True
        try:
            dtype = self._dtype(name)
            for index, row in rows:
                data = memoryview(
                    np.ascontiguousarray(row, dtype=dtype).reshape(-1)
                ).cast("B")
                offset = index * data.nbytes
                while data:
                    written = os.pwrite(fd, data, offset)
                    data = data[written:]
                    offset += written
            os.fsync(fd)
        finally:
            os.close(fd)
        return created

    @staticmethod
    def _flush_records(mem: np.ndarray, lo: int, hi: int) -> None:
        """msync only the pages covering prefix-table rows ``[lo, hi)``.

        ``np.memmap.flush()`` syncs the whole mapping, which turns an
        incremental :meth:`build_prefix` into quadratic writeback (every
        extension re-syncs the full table). Flushing the touched byte range
        keeps each extension's cost proportional to its new rows.
        """
        raw = getattr(mem, "_mmap", None)
        if raw is None:  # not a memmap-backed array; nothing to sync
            return
        record_bytes = mem.itemsize * int(np.prod(mem.shape[1:], dtype=np.int64))
        page = mmap.PAGESIZE
        start = (lo * record_bytes // page) * page
        stop = min(hi * record_bytes, mem.nbytes)
        if stop > start:
            raw.flush(start, stop - start)

    def read_windows(self, indices: list[int]) -> list[WindowRecord]:
        capacity = self._capacity()
        if capacity == 0:
            raise StorageError(
                f"window records missing from store: {list(indices)}"
            )
        maps = self._readable()
        sizes = maps["sizes"]
        records: list[WindowRecord] = []
        for index in indices:
            i = int(index)
            if not 0 <= i < capacity or sizes[i] == 0:
                raise StorageError(f"window record {i} missing from store")
            records.append(
                WindowRecord(
                    index=i,
                    means=maps["means"][i],
                    stds=maps["stds"][i],
                    pairs=maps["pairs"][i],
                    size=int(sizes[i]),
                )
            )
        return records

    def read_windows_consistent(
        self, indices: list[int], attempts: int = 8, backoff: float = 0.005
    ) -> list[WindowRecord]:
        """Seqlock-validated :meth:`read_windows` for concurrent writers.

        Materializes (copies) the requested records between two
        :meth:`read_generation` samples and retries while a commit is in
        progress (odd generation) or landed mid-read (samples differ).
        The copies matter: plain ``read_windows`` returns zero-copy mmap
        views, which stay live — and tearable — after validation.

        Args:
            indices: Window indices to read.
            attempts: Read attempts before giving up (a writer that
                commits continuously can starve readers; bound the wait).
            backoff: Seconds to sleep between attempts.

        Raises:
            StorageError: When a record is missing, or no consistent
                snapshot landed within ``attempts`` tries.
        """
        import time as _time

        if attempts < 1:
            raise StorageError("read_windows_consistent needs attempts >= 1")
        for attempt in range(attempts):
            before = self.read_generation()
            if before % 2 == 1:  # a commit is in flight right now
                _time.sleep(backoff)
                continue
            try:
                records = [
                    WindowRecord(
                        index=record.index,
                        means=np.array(record.means, copy=True),
                        stds=np.array(record.stds, copy=True),
                        pairs=np.array(record.pairs, copy=True),
                        size=record.size,
                    )
                    for record in self.read_windows(indices)
                ]
            except StorageError:
                # A commit (say a trim) may have changed the files under
                # this read; only trust the error once a quiet generation
                # confirms it. A slot a pure append has not published yet
                # is missing at once: the generation does not move.
                if self.read_generation() == before:
                    raise
                _time.sleep(backoff)
                continue
            if self.read_generation() == before:
                return records
            _time.sleep(backoff)
        raise StorageError(
            f"no consistent read of windows {list(indices)} within "
            f"{attempts} attempts; a writer is committing continuously"
        )

    def window_count(self) -> int:
        if self._capacity() == 0 or self._n is None:
            return 0
        return int(np.count_nonzero(self._readable()["sizes"]))

    def next_index(self) -> int:
        if self._capacity() == 0 or self._n is None:
            return 0
        committed = np.flatnonzero(self._readable()["sizes"])
        return int(committed[-1]) + 1 if committed.size else 0

    def size_bytes(self) -> int:
        total = 0
        for file_path in (
            self._meta_path, *self._files.values(), *self._prefix_files.values()
        ):
            if file_path.exists():
                total += file_path.stat().st_size
        return total

    def close(self) -> None:
        self._read_maps = None
