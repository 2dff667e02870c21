"""Experiment harness (system S17 in DESIGN.md).

Runs (workload x technique x configuration) simulations, compares against
the periodic-all baseline, and regenerates every figure and table of the
paper's evaluation section.
"""
