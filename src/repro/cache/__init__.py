"""Set-associative cache substrate (system S1 in DESIGN.md).

This package provides the cache the simulator drives with post-L1
traces: a true-LRU set-associative L2 with per-way enable masks and
dirty/valid bookkeeping backed by NumPy state arrays (shared with the
refresh engines).  Writebacks go straight to the memory channel
(:class:`repro.mem.dram.MainMemory`), which posts them.
"""
