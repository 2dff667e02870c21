"""Stack-distance-based synthetic L2 trace generator (system S15).

The paper's evaluation drives a 4-8 MB LLC with SPEC CPU2006 / HPC-proxy
traces.  We cannot ship those, so this module generates traces whose
*LLC-visible* properties -- working-set size, per-set LRU-position reuse
profile, write fraction, memory intensity, phase behaviour, and LRU vs
non-LRU access-pattern shape -- are controlled directly, because those are
exactly the properties ESTEEM and RPV react to.

Model
-----
Addresses are organised into ``V`` *virtual sets* (default 4096, matching
the default L2 set count; caches with more/fewer real sets dilute/alias the
virtual sets, which mirrors how a real trace redistributes over a different
geometry).  Each virtual set keeps a recency stack of the lines recently
touched in it.  Every record is one of:

* ``near`` -- a stack-distance reuse: pick a virtual set, draw a depth from
  a geometric distribution with mean ``d_mean``, and touch the line at that
  recency depth (promoting it).  This is what generates LRU-friendly,
  monotonically-decaying position histograms (Section 3.1).
* ``far`` -- a uniform reuse anywhere in the working set (captures
  scattered pointer-chasing traffic; not promoted, an accepted
  approximation documented in DESIGN.md).
* ``new`` -- the next cold line, allocated sequentially, wrapping at the
  working-set size (streaming traffic).

The ``scan`` pattern instead walks the working set cyclically, which is the
classic anti-LRU access pattern (hits land at deep, non-monotonic recency
positions -- the omnetpp/xalancbmk behaviour the non-LRU guard of
Algorithm 1 exists for).  The ``stream`` pattern allocates cold lines
almost exclusively (libquantum/milc-style, ~100% miss rate).

Randomness is drawn vectorised with NumPy per segment; only the recency
stack maintenance runs in the per-record Python loop.  Each segment draws
its full-size columns (so the random stream never depends on the budget),
cuts them at the instruction budget, and runs that loop over the kept
records only.  A virtual set's seeded stack is built on its first touch,
holding just the lines its depth cap keeps.
"""

from __future__ import annotations

import zlib
from collections import deque

import numpy as np

from repro.workloads.profiles import BenchmarkProfile, PhaseSpec
from repro.workloads.trace import Trace

__all__ = ["PhaseSpec", "SyntheticTraceGenerator", "generate_trace", "VIRTUAL_SETS"]

#: Number of virtual sets addresses are striped over (= default L2 set count).
VIRTUAL_SETS: int = 4096

_VSET_BITS: int = VIRTUAL_SETS.bit_length() - 1

#: Cap on per-virtual-set stack depth (bounds deque maintenance cost).
_MAX_STACK_DEPTH: int = 96


class SyntheticTraceGenerator:
    """Generates :class:`~repro.workloads.trace.Trace` objects from a profile."""

    def __init__(self, profile: "BenchmarkProfile", seed: int = 0) -> None:
        self.profile = profile
        self.seed = seed

    def generate(
        self,
        max_instructions: int,
        max_records: int | None = None,
    ) -> Trace:
        """Generate a trace covering ``max_instructions`` instructions.

        Generation stops at whichever limit is hit first; every workload
        therefore represents the same instruction budget regardless of its
        memory intensity (matching the paper's fixed 400 M-instruction
        simulation windows).
        """
        profile = self.profile
        # zlib.crc32 rather than hash(): string hashing is salted per
        # process, and traces must be reproducible across runs.
        rng = np.random.default_rng(
            np.random.SeedSequence(
                [zlib.crc32(profile.name.encode("utf-8")), self.seed]
            )
        )
        # Per-segment NumPy columns, concatenated once at the end -- the
        # trace stays array-backed with no list round-trips.
        addr_chunks: list[np.ndarray] = []
        write_chunks: list[np.ndarray] = []
        gap_chunks: list[np.ndarray] = []
        n_records = 0

        # Per-virtual-set recency stacks and cold-allocation cursors are
        # shared across phases (phases of one application share its address
        # space).  The stacks are seeded with the largest phase's working
        # set: the trace represents a window 10 B instructions into the
        # run, by which point the working set is resident in the
        # application's reuse structure -- without seeding, a scaled-down
        # trace would start with depth-1 stacks and every near reuse would
        # collapse to the MRU position.  The first "new" touch wraps,
        # modelling steady-state streaming.
        ws_max = max(ph.ws_lines for ph in profile.phases)
        stacks = _SeededStacks(ws_max)
        cold_cursor = ws_max
        scan_cursor = 0

        instructions = 0
        record_cap = max_records if max_records is not None else 1 << 62
        phases = profile.phases
        phase_idx = 0

        while instructions < max_instructions and n_records < record_cap:
            phase = phases[phase_idx % len(phases)]
            phase_idx += 1
            n = min(phase.segment_records, record_cap - n_records)
            seg = self._generate_segment(
                phase,
                n,
                max_instructions - instructions,
                rng,
                stacks,
                cold_cursor,
                scan_cursor,
            )
            seg_addrs, seg_writes, seg_gaps, used, cold_cursor, scan_cursor = seg
            addr_chunks.append(seg_addrs)
            write_chunks.append(seg_writes)
            gap_chunks.append(seg_gaps)
            n_records += len(seg_addrs)
            instructions += used

        return Trace(
            name=profile.name,
            addrs=(
                np.concatenate(addr_chunks)
                if addr_chunks
                else np.empty(0, dtype=np.int64)
            ),
            writes=(
                np.concatenate(write_chunks)
                if write_chunks
                else np.empty(0, dtype=bool)
            ),
            gaps=(
                np.concatenate(gap_chunks)
                if gap_chunks
                else np.empty(0, dtype=np.int64)
            ),
            base_cpi=profile.base_cpi,
            mem_mlp=profile.mem_mlp,
            footprint_lines=profile.footprint_lines,
        )

    # ------------------------------------------------------------------

    def _generate_segment(
        self,
        phase: PhaseSpec,
        n: int,
        budget: int,
        rng: np.random.Generator,
        stacks: _SeededStacks,
        cold_cursor: int,
        scan_cursor: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int, int]:
        """Draw ``n`` records for one phase segment and keep those within
        ``budget`` instructions.

        Every random column is drawn at its full size ``n``: the columns
        come from one stream in turn, so a shorter draw would shift every
        column after it.  Only the addresses of the kept prefix are
        resolved.
        Returns the kept columns, the instructions they cover, and the
        updated cold/scan cursors.
        """
        profile = self.profile
        # Vectorised randomness.
        writes = rng.random(n) < profile.write_fraction
        gap_mean = profile.gap_mean
        if gap_mean > 0:
            gaps = (rng.geometric(1.0 / (gap_mean + 1.0), size=n) - 1).astype(
                np.int64
            )
        else:
            gaps = np.zeros(n, dtype=np.int64)
        # Cut at the instruction budget.  side="left": when some prefix
        # meets the budget exactly, the record after it must not ride
        # along (the caller would never have asked for it).
        cum = np.cumsum(gaps + 1)
        keep = n
        if cum[-1] > budget:
            keep = int(np.searchsorted(cum, budget, side="left")) + 1
            writes = writes[:keep]
            gaps = gaps[:keep]

        if phase.pattern == "scan":
            addrs, scan_cursor = self._scan_addresses(phase, keep, scan_cursor)
        else:
            addrs, cold_cursor = self._mixture_addresses(
                phase, n, keep, rng, stacks, cold_cursor
            )
        return addrs, writes, gaps, int(cum[keep - 1]), cold_cursor, scan_cursor

    @staticmethod
    def _scan_addresses(
        phase: PhaseSpec, n: int, cursor: int
    ) -> tuple[np.ndarray, int]:
        """Cyclic sequential walk over the working set (anti-LRU)."""
        ws = phase.ws_lines
        idx = (np.arange(cursor, cursor + n)) % ws
        vsets = idx % VIRTUAL_SETS
        ks = idx // VIRTUAL_SETS
        addrs = ((ks << _VSET_BITS) | vsets).astype(np.int64)
        return addrs, (cursor + n) % ws

    @staticmethod
    def _mixture_addresses(
        phase: PhaseSpec,
        n: int,
        keep: int,
        rng: np.random.Generator,
        stacks: _SeededStacks,
        cold_cursor: int,
    ) -> tuple[np.ndarray, int]:
        """Near/far/new mixture resolved against the virtual-set stacks.

        Draws randomness for ``n`` records and resolves the first ``keep``.
        """
        ws = phase.ws_lines
        p_new = phase.p_new
        p_near = phase.p_near
        if phase.pattern == "stream":
            p_new, p_near = max(p_new, 0.95), min(p_near, 0.05)

        u = rng.random(n)[:keep]
        # kind: 0 = new, 1 = near, 2 = far
        kinds_list = np.where(
            u < p_new, 0, np.where(u < p_new + p_near, 1, 2)
        ).tolist()
        depths = np.minimum(
            rng.geometric(1.0 / phase.d_mean, size=n)[:keep] - 1,
            _MAX_STACK_DEPTH - 1,
        ).tolist()
        far_ids = rng.integers(0, ws, size=n)[:keep].tolist()
        # Near reuses pick among the seeded virtual sets.  Cold lines wrap
        # at the phase's working set, which never exceeds the seeded one,
        # so no other set ever gains history.
        near_vsets = (
            rng.integers(0, VIRTUAL_SETS, size=n)[:keep] % stacks.n_vsets
        ).tolist()

        vbits = _VSET_BITS
        addrs: list[int] = []
        append = addrs.append

        for i in range(keep):
            kind = kinds_list[i]
            if kind == 1:
                # Near reuse: geometric recency depth inside a virtual set.
                dq = stacks[near_vsets[i]]
                d = depths[i]
                ln = len(dq)
                if d >= ln:
                    d = ln - 1
                if d == 0:
                    addr = dq[-1]
                else:
                    addr = dq[-1 - d]
                    del dq[-1 - d]
                    dq.append(addr)
                append(addr)
            elif kind == 2:
                # Far reuse: uniform over the working set (not promoted).
                line_id = far_ids[i]
                append(((line_id // VIRTUAL_SETS) << vbits) | (line_id % VIRTUAL_SETS))
            else:
                # New/cold line, allocated sequentially, wrapping at ws.
                line_id = cold_cursor % ws
                cold_cursor += 1
                v = line_id % VIRTUAL_SETS
                addr = ((line_id // VIRTUAL_SETS) << vbits) | v
                stacks[v].append(addr)
                append(addr)
        return np.asarray(addrs, dtype=np.int64), cold_cursor


class _SeededStacks(dict):
    """Per-virtual-set recency stacks, each seeded on first touch.

    Set ``v`` starts as if the cold allocator had already placed every
    line of a ``ws_lines`` working set that maps to it, in order (line
    ``k`` of the set at address ``(k << _VSET_BITS) | v``, which is
    ``k * VIRTUAL_SETS + v``).  The stack's cap keeps only the last
    ``_MAX_STACK_DEPTH`` of those, so only those are built.  Sets
    ``0 .. n_vsets - 1`` hold history; near reuses pick among them.
    """

    def __init__(self, ws_lines: int) -> None:
        super().__init__()
        self.ws_lines = ws_lines
        self.n_vsets = min(ws_lines, VIRTUAL_SETS)

    def __missing__(self, v: int) -> deque:
        per_set = (self.ws_lines - v - 1) // VIRTUAL_SETS + 1
        lo = max(0, per_set - _MAX_STACK_DEPTH)
        dq = self[v] = deque(
            range(lo * VIRTUAL_SETS + v, per_set * VIRTUAL_SETS + v, VIRTUAL_SETS),
            maxlen=_MAX_STACK_DEPTH,
        )
        return dq


def generate_trace(
    profile: "BenchmarkProfile",
    max_instructions: int,
    seed: int = 0,
    max_records: int | None = None,
) -> Trace:
    """Convenience wrapper: one-call trace generation."""
    return SyntheticTraceGenerator(profile, seed=seed).generate(
        max_instructions, max_records=max_records
    )
