"""Trace containers: the unit of work the timing model consumes.

A trace is a sequence of L2-level access records.  Each record is
``(line_addr, is_write, gap)`` where ``gap`` is the number of instructions
retired since the previous L2 access (this folds the L1 filtering into the
trace: ``gap`` counts both non-memory instructions and L1-hit accesses,
whose latency is absorbed into the workload's base CPI -- see DESIGN.md
section 1 on the substitution for Sniper + SPEC traces).

Storage is three parallel NumPy arrays (int64 / bool / int64) end-to-end:
(de)serialisation is a direct ``savez``/``load`` of the columns with no
``tolist`` round-trips, pickling for the parallel sweep workers ships the
compact binary buffers, and vectorised consumers slice the arrays
directly.  The scalar simulation hot loop wants plain Python ints (NumPy
scalar extraction costs more per element than list indexing), so
:meth:`Trace.columns` materialises list views once per trace and caches
them -- every :class:`TraceCursor` and every technique run over the same
trace shares that single materialisation.

For the warm-worker sweep pool, :meth:`Trace.to_shm` exports the columns
into one named ``multiprocessing.shared_memory`` segment and
:meth:`Trace.from_shm` reattaches them as zero-copy read-only views, so a
multi-million-record trace crosses the process boundary as a ~100-byte
:class:`TraceShmHandle` instead of a pickled copy of the arrays.  Segment
lifetime is owned by the *creating* process (see
:class:`repro.experiments.pool.SharedTraceStore`); attachers never
unlink.
"""

from __future__ import annotations

import io
import itertools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["Trace", "TraceCorruptionError", "TraceCursor", "TraceShmHandle"]


@dataclass(frozen=True)
class TraceShmHandle:
    """Picklable descriptor of a trace exported to shared memory.

    Carries the segment name plus the scalar metadata needed to rebuild
    the :class:`Trace` on the attaching side; the columns themselves stay
    in the named segment and are never copied through the pickle path.
    """

    segment: str
    n_records: int
    name: str
    base_cpi: float
    mem_mlp: float
    footprint_lines: int

    @property
    def nbytes(self) -> int:
        """Payload bytes held by the segment (two int64 + one bool column)."""
        return 17 * self.n_records


def _attach_shm(segment: str):
    """Attach to an existing shared-memory segment without adopting its
    lifetime.

    On Python < 3.13 plain attachment also registers the segment with the
    process's resource tracker, which would unlink it when *this* process
    exits -- destroying it for the creator and every sibling.  The
    ``track=False`` keyword (3.13+) is the sanctioned fix; older versions
    need the explicit unregister.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=segment, track=False)
    except TypeError:
        pass
    shm = shared_memory.SharedMemory(name=segment)
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass
    return shm


class TraceCorruptionError(ValueError):
    """A trace archive failed its on-load integrity check.

    Raised by :meth:`Trace.load` when the ``.npz`` is unreadable, a
    required column is missing, the parallel columns disagree on length,
    or the stored record count does not match the columns (a truncated or
    partially-written file).  The message always names the file so a
    sweep over many archives can report *which* input is bad.
    """


@dataclass(eq=False)
class Trace:
    """An L2-level access trace for one core.

    Attributes
    ----------
    name:
        Workload name ("h264ref", ...).
    addrs / writes / gaps:
        Parallel per-record NumPy columns (``int64`` / ``bool`` / ``int64``):
        line address, store flag, instructions since the previous record.
        List inputs are converted on construction.
    base_cpi:
        Cycles per instruction charged for the ``gap`` work (captures issue
        width, L1 hit latency, and non-memory stalls for this workload).
    """

    name: str
    addrs: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    writes: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=bool))
    gaps: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    base_cpi: float = 1.0
    #: Memory-level parallelism: effective miss penalty divisor.  Streaming,
    #: prefetch-friendly codes overlap several outstanding misses (>= 3);
    #: dependent pointer chases see the full latency (~1).
    mem_mlp: float = 1.0
    #: Distinct-line LLC footprint the workload would have accumulated by
    #: the time measurement starts at paper scale (10 B fast-forward +
    #: 400 M measured instructions).  The simulator pre-fills this many
    #: lines with stale valid data before the run, reproducing the warmed
    #: cache state the refresh policies see in the paper.  0 disables.
    footprint_lines: int = 0

    def __post_init__(self) -> None:
        self.addrs = np.asarray(self.addrs, dtype=np.int64)
        self.writes = np.asarray(self.writes, dtype=bool)
        self.gaps = np.asarray(self.gaps, dtype=np.int64)
        if not (len(self.addrs) == len(self.writes) == len(self.gaps)):
            raise ValueError("trace columns must have equal length")
        self._instructions: int | None = None
        self._columns: tuple[list, list, list] | None = None
        self._records: dict[int, list[tuple]] = {}
        self._retire_records: dict[tuple, tuple[list[tuple], list[int]]] = {}
        self._set_index_columns: dict[int, np.ndarray] = {}
        self._tag_columns: dict[int, np.ndarray] = {}
        self._gcpi_lists: dict[float, list[float]] = {}

    def __len__(self) -> int:
        return len(self.addrs)

    @property
    def instructions(self) -> int:
        """Total instructions represented (each record is 1 memory op + gap).

        Cached after the first computation -- the columns are treated as
        immutable once the trace is built.
        """
        if self._instructions is None:
            self._instructions = int(self.gaps.sum()) + len(self.gaps)
        return self._instructions

    @property
    def write_fraction(self) -> float:
        return float(self.writes.mean()) if len(self.writes) else 0.0

    def distinct_lines(self) -> int:
        return int(np.unique(self.addrs).size) if len(self.addrs) else 0

    def records(self):
        """Iterate ``(addr, is_write, gap)`` tuples (plain Python scalars)."""
        return zip(*self.columns())

    def columns(self) -> tuple[list, list, list]:
        """The three columns as plain Python lists, materialised once.

        This is the scalar hot loop's view of the trace: list indexing
        yields native ints/bools (cheaper per record than NumPy scalar
        extraction), and the single cached materialisation is shared by
        every cursor and every technique run over this trace.
        """
        cols = self._columns
        if cols is None:
            cols = (
                self.addrs.tolist(),
                self.writes.tolist(),
                self.gaps.tolist(),
            )
            self._columns = cols
        return cols

    def records_list(self, offset: int = 0) -> list[tuple]:
        """``(addr | offset, is_write, gap)`` tuples, materialised once.

        The fast simulation loops fetch one tuple per record (a single
        list subscript plus an unpack) instead of indexing three parallel
        columns, and the per-core address offset is baked in up front so
        the hot path never pays the OR.  Cached per offset and shared by
        every run over this trace.
        """
        recs = self._records.get(offset)
        if recs is None:
            addrs, writes, gaps = self.columns()
            if offset:
                addrs = [addr | offset for addr in addrs]
            recs = list(zip(addrs, writes, gaps))
            self._records[offset] = recs
        return recs

    def retire_records(
        self, offset: int, base_cpi: float
    ) -> tuple[list[tuple], list[int]]:
        """Per-record retire view: ``(addr, is_write, gi*cpi, gi)`` + cumsum.

        ``gi = gap + 1`` is the record's instruction count and ``gi * cpi``
        its precomputed base cycle cost -- bit-identical to computing the
        product per record, since the operands are the same.  The second
        element is the running instruction total through each record, which
        lets the fast loop reconstruct the instruction counter from cursor
        positions instead of incrementing it per record.  Cached per
        (offset, cpi) and shared by every run over this trace.
        """
        key = (offset, base_cpi)
        cached = self._retire_records.get(key)
        if cached is None:
            addrs, writes, gaps = self.columns()
            if offset:
                addrs = [addr | offset for addr in addrs]
            gis = [gap + 1 for gap in gaps]
            recs = list(zip(addrs, writes, [gi * base_cpi for gi in gis], gis))
            gi_cum = list(itertools.accumulate(gis))
            cached = self._retire_records[key] = (recs, gi_cum)
        return cached

    def set_index_column(self, set_mask: int) -> np.ndarray:
        """Per-record cache set index (``addr & set_mask``) as a read-only
        NumPy column, materialised once per mask.

        This is the batch classification kernel's grouping key: the kernel
        slices it per event-horizon chunk instead of re-deriving set
        indices record by record.  Cached alongside the scalar record
        caches (and invalidated with them on pickling), so shm-attached
        traces re-derive it lazily on the attaching side rather than
        shipping it through the segment.
        """
        col = self._set_index_columns.get(set_mask)
        if col is None:
            col = self.addrs & set_mask
            col.flags.writeable = False
            self._set_index_columns[set_mask] = col
        return col

    def tag_column(self, set_bits: int) -> np.ndarray:
        """Per-record tag bits (``addr >> set_bits``), cached per shift.

        Companion to :meth:`set_index_column` for consumers that key on
        the tag alone (the batch kernel compares full line addresses, so
        it only needs the set index; characterisation tooling uses this).
        """
        col = self._tag_columns.get(set_bits)
        if col is None:
            col = self.addrs >> set_bits
            col.flags.writeable = False
            self._tag_columns[set_bits] = col
        return col

    def gcpi_list(self, base_cpi: float) -> list[float]:
        """Per-record base cycle cost ``(gap + 1) * base_cpi`` as a list.

        The same values :meth:`retire_records` bakes into its tuples, as a
        standalone column: the batch kernel's commit loop reads one float
        per record instead of unpacking the four-tuple.  Cached per CPI.
        """
        col = self._gcpi_lists.get(base_cpi)
        if col is None:
            col = [(gap + 1) * base_cpi for gap in self.columns()[2]]
            self._gcpi_lists[base_cpi] = col
        return col

    # ------------------------------------------------------------------
    # Pickling (parallel sweep workers)
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        # Ship only the compact NumPy columns; the cached list
        # materialisation is rebuilt lazily on the receiving side.  A
        # shared-memory anchor is process-local (the arrays pickle as
        # ordinary copies), so it never rides along.
        state = dict(self.__dict__)
        state["_instructions"] = None
        state["_columns"] = None
        state["_records"] = {}
        state["_retire_records"] = {}
        state["_set_index_columns"] = {}
        state["_tag_columns"] = {}
        state["_gcpi_lists"] = {}
        state.pop("_shm", None)
        return state

    # ------------------------------------------------------------------
    # Shared-memory export (zero-copy distribution to sweep workers)
    # ------------------------------------------------------------------

    def to_shm(self, name: str | None = None):
        """Export the columns into one named shared-memory segment.

        Returns ``(shm, handle)``: the live ``SharedMemory`` object (the
        caller owns it -- ``close()`` + ``unlink()`` when every consumer
        is done) and the picklable :class:`TraceShmHandle` to ship to
        attaching processes.  Layout is ``addrs | gaps | writes`` so both
        int64 columns stay 8-byte aligned.
        """
        from multiprocessing import shared_memory

        n = len(self.addrs)
        shm = shared_memory.SharedMemory(
            create=True, size=max(1, 17 * n), name=name
        )
        np.ndarray((n,), np.int64, buffer=shm.buf)[:] = self.addrs
        np.ndarray((n,), np.int64, buffer=shm.buf, offset=8 * n)[:] = self.gaps
        np.ndarray((n,), np.bool_, buffer=shm.buf, offset=16 * n)[:] = self.writes
        handle = TraceShmHandle(
            segment=shm.name,
            n_records=n,
            name=self.name,
            base_cpi=self.base_cpi,
            mem_mlp=self.mem_mlp,
            footprint_lines=self.footprint_lines,
        )
        return shm, handle

    @classmethod
    def from_shm(cls, handle: TraceShmHandle) -> "Trace":
        """Rebuild a trace as zero-copy views over a shared segment.

        The columns are read-only NumPy views backed directly by the
        segment's buffer (no copy at any size); the attachment is held on
        the returned trace so the mapping outlives the views.  The
        creating process remains responsible for unlinking the segment.
        """
        shm = _attach_shm(handle.segment)
        n = handle.n_records
        addrs = np.ndarray((n,), np.int64, buffer=shm.buf)
        gaps = np.ndarray((n,), np.int64, buffer=shm.buf, offset=8 * n)
        writes = np.ndarray((n,), np.bool_, buffer=shm.buf, offset=16 * n)
        for arr in (addrs, gaps, writes):
            arr.flags.writeable = False
        trace = cls(
            name=handle.name,
            addrs=addrs,
            writes=writes,
            gaps=gaps,
            base_cpi=handle.base_cpi,
            mem_mlp=handle.mem_mlp,
            footprint_lines=handle.footprint_lines,
        )
        trace._shm = shm
        return trace

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the trace as a compressed ``.npz`` file.

        ``n_records`` is stored alongside the columns as an integrity
        seal: :meth:`load` cross-checks it against the column lengths to
        catch truncated or partially-written archives.
        """
        np.savez_compressed(
            str(path),
            name=np.array(self.name),
            addrs=self.addrs,
            writes=self.writes,
            gaps=self.gaps,
            base_cpi=np.array(self.base_cpi),
            mem_mlp=np.array(self.mem_mlp),
            footprint_lines=np.array(self.footprint_lines),
            n_records=np.array(len(self.addrs)),
        )

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        """Load a ``.npz`` trace; the columns stay NumPy arrays.

        Optional scalar fields (``mem_mlp``, ``footprint_lines``,
        ``n_records``) default when absent, so archives written by older
        versions that predate those fields still load.

        Raises
        ------
        TraceCorruptionError
            If the archive is unreadable, a required column is missing,
            the parallel columns disagree on length, or the stored record
            count does not match the columns.  The message names the
            offending file.
        """
        try:
            with np.load(str(path)) as data:
                files = set(data.files)
                missing = {"name", "addrs", "writes", "gaps"} - files
                if missing:
                    raise TraceCorruptionError(
                        f"trace archive {path} is missing required "
                        f"field(s) {sorted(missing)}"
                    )
                addrs = data["addrs"]
                writes = data["writes"]
                gaps = data["gaps"]
                lengths = {len(addrs), len(writes), len(gaps)}
                if len(lengths) != 1:
                    raise TraceCorruptionError(
                        f"trace archive {path} has inconsistent column "
                        f"lengths: addrs={len(addrs)}, "
                        f"writes={len(writes)}, gaps={len(gaps)}"
                    )
                if "n_records" in files:
                    stored = int(data["n_records"])
                    if stored != len(addrs):
                        raise TraceCorruptionError(
                            f"trace archive {path} stores n_records="
                            f"{stored} but its columns hold {len(addrs)} "
                            f"records (truncated or partially written?)"
                        )
                return cls(
                    name=str(data["name"]),
                    addrs=addrs,
                    writes=writes,
                    gaps=gaps,
                    base_cpi=(
                        float(data["base_cpi"]) if "base_cpi" in files else 1.0
                    ),
                    mem_mlp=float(data["mem_mlp"]) if "mem_mlp" in files else 1.0,
                    footprint_lines=(
                        int(data["footprint_lines"])
                        if "footprint_lines" in files
                        else 0
                    ),
                )
        except TraceCorruptionError:
            raise
        except Exception as exc:
            # np.load failures surface as zipfile/OSError/ValueError/
            # EOFError depending on how the file is damaged; normalise
            # them all to one typed error naming the file.
            raise TraceCorruptionError(
                f"cannot read trace archive {path}: {exc}"
            ) from exc

    def to_bytes(self) -> bytes:
        buf = io.BytesIO()
        np.savez_compressed(
            buf,
            name=np.array(self.name),
            addrs=self.addrs,
            writes=self.writes,
            gaps=self.gaps,
            base_cpi=np.array(self.base_cpi),
            mem_mlp=np.array(self.mem_mlp),
            footprint_lines=np.array(self.footprint_lines),
            n_records=np.array(len(self.addrs)),
        )
        return buf.getvalue()


class TraceCursor:
    """A wrapping iterator over a trace.

    Implements the paper's dual-core methodology (Section 6.4): a benchmark
    that exhausts its trace before its co-runner keeps executing (the trace
    wraps around), but statistics for its speedup are recorded only for the
    first pass.

    The cursor reads the trace's cached scalar columns (shared across all
    cursors over the same trace); :meth:`chunk_view` additionally exposes
    zero-copy NumPy slices of the remaining first-pass records for
    vectorised consumers and the chunked fast loop.
    """

    __slots__ = ("trace", "index", "wraps", "_addrs", "_writes", "_gaps")

    def __init__(self, trace: Trace) -> None:
        if len(trace) == 0:
            raise ValueError("cannot iterate an empty trace")
        self.trace = trace
        self.index = 0
        self.wraps = 0
        self._addrs, self._writes, self._gaps = trace.columns()

    @property
    def first_pass_done(self) -> bool:
        return self.wraps > 0

    def columns(self) -> tuple[list, list, list]:
        """The trace's shared scalar columns (hot-loop view)."""
        return self._addrs, self._writes, self._gaps

    def next_record(self) -> tuple[int, bool, int]:
        """Return the next ``(addr, is_write, gap)``, wrapping at the end."""
        i = self.index
        rec = (self._addrs[i], self._writes[i], self._gaps[i])
        i += 1
        if i >= len(self._addrs):
            i = 0
            self.wraps += 1
        self.index = i
        return rec

    def chunk_view(
        self, max_records: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Zero-copy views of up to ``max_records`` upcoming records.

        The views never cross the wrap point: at most ``len(trace) -
        index`` records are returned, so a caller consuming the full view
        lands exactly on the record boundary where the wrap (and the
        first-pass IPC snapshot) must be recorded.  The cursor itself is
        not advanced; pair with :meth:`advance`.
        """
        if max_records < 1:
            raise ValueError("chunk must cover at least one record")
        t = self.trace
        i = self.index
        j = min(i + max_records, len(t.addrs))
        return t.addrs[i:j], t.writes[i:j], t.gaps[i:j]

    def advance(self, count: int) -> None:
        """Consume ``count`` records, with the same wrap accounting as
        ``count`` calls to :meth:`next_record`."""
        if count < 0:
            raise ValueError("cannot advance backwards")
        n = len(self._addrs)
        i = self.index + count
        self.wraps += i // n
        self.index = i % n
