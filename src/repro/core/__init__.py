"""ESTEEM: the paper's primary contribution (systems S9-S13 in DESIGN.md).

Module partitioning of the cache sets, the embedded auxiliary tag directory
(set sampling), the energy-saving Algorithm 1, the way-gating
reconfiguration controller, and the interval-driven top-level controller.
"""
