"""Sweep checkpoint: an append-only JSONL log of a sweep's finished units.

A :class:`SweepCheckpoint` (``repro sweep --checkpoint FILE``) writes
one JSON line per comparison of every unit the sweep finishes or serves
from the result cache.  It is a log, not a second result store: an
interrupted sweep is finished by running the same command again, which
serves the units it had finished from the result cache.

* **One sweep per file**: the constructor starts the file afresh with a
  header line ``{"magic", "fingerprint"}``, the SHA-256 fingerprint of
  the sweep parameters (flattened config, techniques, seed, fault plan),
  so a rerun never mixes two sweeps' lines.
* **Append-only**: :meth:`record` appends one unit's lines and closes
  the file before it returns; a crash can tear at most the last line.
* **Exact**: units round-trip through
  :func:`~repro.experiments.runner.comparison_to_dict`, whose JSON float
  encoding is shortest-round-trip, so :meth:`load` returns them bit for
  bit.  It refuses a file written by a different sweep, and drops a
  torn or otherwise unparsable line with a warning.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.config import SimConfig, config_fields
from repro.experiments.runner import (
    RunComparison,
    comparison_from_dict,
    comparison_to_dict,
)
from repro.faults.plan import FaultPlan
from repro.util import stable_fingerprint

__all__ = ["SweepCheckpoint", "sweep_fingerprint"]

_MAGIC = "repro-sweep-checkpoint-v1"


def sweep_fingerprint(
    config: SimConfig,
    techniques: tuple[str, ...],
    seed: int,
    plan: FaultPlan | None = None,
) -> str:
    """Stable identity of a sweep: same fingerprint == same results.

    Plane-2 chaos fields are part of the plan's dict and therefore of the
    fingerprint: a chaos plan changes *which* attempts fail, never the
    results of units that complete, but a checkpoint names the exact
    sweep that wrote it.
    """
    payload = {
        "config": {k: v for k, v in sorted(config_fields(config).items())},
        "techniques": list(techniques),
        "seed": seed,
        "plan": plan.as_dict() if plan is not None else None,
    }
    return stable_fingerprint(payload, length=16)


class SweepCheckpoint:
    """Append-only JSONL log of one sweep's finished units.

    The first line is the header; every later line is one serialised
    :class:`RunComparison`.  ``completed`` maps each workload to the
    comparisons recorded (or loaded) for it.
    """

    def __init__(self, path: str | Path, fingerprint: str) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.completed: dict[str, list[RunComparison]] = {}
        header = {"magic": _MAGIC, "fingerprint": fingerprint}
        self.path.write_text(json.dumps(header) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path, fingerprint: str) -> "SweepCheckpoint":
        """Read a checkpoint back, without writing to it.

        A file that is not a sweep checkpoint, or whose fingerprint is
        not ``fingerprint`` (another sweep wrote it), raises
        ``ValueError``.  A torn or unparsable line is dropped with a
        warning.
        """
        path = Path(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        try:
            header = json.loads(lines[0])
        except (IndexError, json.JSONDecodeError):
            header = {}
        if not isinstance(header, dict) or header.get("magic") != _MAGIC:
            raise ValueError(
                f"{path} is not a sweep checkpoint (bad or missing header)"
            )
        if header.get("fingerprint") != fingerprint:
            raise ValueError(
                f"checkpoint {path} was written by a different sweep "
                f"(fingerprint {header.get('fingerprint')!r} != "
                f"{fingerprint!r})"
            )
        # Bypass the constructor, which would start the file afresh.
        ckpt = cls.__new__(cls)
        ckpt.path, ckpt.fingerprint, ckpt.completed = path, fingerprint, {}
        for n, line in enumerate(lines[1:], start=2):
            try:
                comp = comparison_from_dict(json.loads(line))
            # Deliberately broad: a torn write can leave *any* malformed
            # shape behind, not only truncated JSON.
            except Exception as exc:  # noqa: BLE001
                print(
                    f"warning: dropping unparsable checkpoint line {n} "
                    f"of {path} ({type(exc).__name__})",
                    file=sys.stderr,
                )
                continue
            ckpt.completed.setdefault(comp.workload, []).append(comp)
        return ckpt

    def record(self, comparisons: list[RunComparison]) -> None:
        """Append one finished unit's comparisons; the file is closed
        before this returns."""
        text = "".join(
            json.dumps(comparison_to_dict(c), sort_keys=True) + "\n"
            for c in comparisons
        )
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(text)
        for comp in comparisons:
            self.completed.setdefault(comp.workload, []).append(comp)
