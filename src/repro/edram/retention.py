"""Temperature-dependent eDRAM retention model (system S6).

Gain-cell eDRAM loses charge through subthreshold leakage, which grows
exponentially with temperature; retention periods therefore shrink
exponentially as the die heats up (Section 6.1, citing Agrawal et al. [4]).

The paper anchors the model at two points:

* Barth et al. [8] report 40 us retention at 105 C.
* The paper assumes a 60 C operating point, giving 50 us.

We fit ``r(T) = r_ref * exp(-k * (T - T_ref))`` through those two points,
which yields ``k = ln(50/40) / 45 per C``.
"""

from __future__ import annotations

import math

__all__ = [
    "RETENTION_AT_60C_US",
    "RETENTION_AT_105C_US",
    "TEMPERATURE_COEFFICIENT",
    "retention_us",
    "temperature_for_retention_us",
]

#: Paper operating point (Section 6.1).
RETENTION_AT_60C_US: float = 50.0

#: Barth et al. measurement point.
RETENTION_AT_105C_US: float = 40.0

#: Exponential decay constant (per degree C) through the two anchors.
TEMPERATURE_COEFFICIENT: float = math.log(
    RETENTION_AT_60C_US / RETENTION_AT_105C_US
) / (105.0 - 60.0)


def retention_us(temperature_c: float) -> float:
    """Retention period in microseconds at ``temperature_c`` degrees C.

    >>> round(retention_us(60.0), 3)
    50.0
    >>> round(retention_us(105.0), 3)
    40.0
    """
    return RETENTION_AT_60C_US * math.exp(
        -TEMPERATURE_COEFFICIENT * (temperature_c - 60.0)
    )


def temperature_for_retention_us(target_us: float) -> float:
    """Inverse model: die temperature at which retention equals ``target_us``."""
    if target_us <= 0:
        raise ValueError("retention period must be positive")
    return 60.0 - math.log(target_us / RETENTION_AT_60C_US) / TEMPERATURE_COEFFICIENT
