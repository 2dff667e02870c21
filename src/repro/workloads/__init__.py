"""Workload substrate (system S15 in DESIGN.md).

Synthetic trace generation standing in for the paper's SPEC CPU2006 + HPC
proxy-app traces: a stack-distance generator, 34 per-benchmark behaviour
profiles, and the 17 dual-core multiprogrammed mixes of Table 1.
"""
