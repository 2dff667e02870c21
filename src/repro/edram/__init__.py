"""eDRAM-specific machinery (systems S6-S8 in DESIGN.md).

Retention-period modelling, refresh engines (periodic-all baseline,
periodic-valid, ESTEEM's valid-in-active-ways variant, and the Refrint
polyphase-valid policy), and the banked refresh scheduler that converts
refresh traffic into expected demand-access stalls.
"""
