"""Timing model: cores, cycle accounting, the multi-core loop (S4-S5)."""
