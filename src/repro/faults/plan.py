"""Deterministic fault plans: what goes wrong, where, and when.

A :class:`FaultPlan` is a declarative, JSON-serialisable description of
faults to inject into a run or a sweep.  It covers both planes of the
fault subsystem:

* **Plane 1 -- modeled hardware faults** (consumed by
  :class:`~repro.faults.inject.FaultInjector`): retention failures /
  transient bit-flips in eDRAM cache lines, either as a per-bank rate
  (``flip_rate`` / ``bank_rates``: probability per valid line per
  retention window) or as explicit ``(set, way, cycle)`` events.
* **Plane 2 -- harness faults** (consumed by
  :class:`~repro.faults.chaos.ChaosWorkerProxy`): crash / hang /
  corrupt-result behaviour of sweep worker processes, keyed by workload
  and attempt number so a retried unit can behave differently from the
  first attempt.

Everything is derived deterministically from ``seed`` plus stable string
keys (workload, technique, attempt), so a retried or resumed run
reproduces its faults bit for bit.  The JSON schema (all fields optional
except that an empty plan injects nothing)::

    {
      "seed": 7,
      "flip_rate": 1e-4,
      "bank_rates": [0.0, 1e-4, 0.0, 0.0],
      "rate_bits": 1,
      "events": [{"set": 12, "way": 3, "cycle": 200000, "bits": 2}],
      "chaos": {"gamess": ["crash"], "povray": ["hang"], "*": []},
      "chaos_rates": {"crash": 0.0, "hang": 0.0, "corrupt": 0.0},
      "hang_seconds": 30.0
    }
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.util import atomic_write

__all__ = ["CHAOS_ACTIONS", "FaultEvent", "FaultPlan"]

#: Worker behaviours a chaos entry may request.  ``ok`` runs normally;
#: ``crash`` hard-kills the worker process (no Python traceback, like a
#: segfault or OOM kill); ``raise`` raises a :class:`~repro.faults.chaos.
#: ChaosError` inside the worker; ``hang`` sleeps ``hang_seconds`` before
#: running (tripping the harness timeout); ``corrupt`` completes the
#: unit but mangles the returned results (tripping result validation);
#: ``kill`` SIGKILLs the worker (no SIGTERM flush, telemetry
#: unconditionally lost).
CHAOS_ACTIONS: tuple[str, ...] = (
    "ok", "crash", "raise", "hang", "corrupt", "kill",
)


def _stable_seed(*parts: object) -> int:
    """A 63-bit seed derived from ``parts`` via SHA-256 (stable across
    processes and Python versions, unlike ``hash``)."""
    text = "|".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class FaultEvent:
    """One explicit hardware fault: bits flip in (set, way) at ``cycle``.

    The fault manifests at the first refresh boundary at or after
    ``cycle`` (see :class:`~repro.edram.refresh.RefreshEngine.advance_to`).
    """

    set_index: int
    way: int
    cycle: int
    bits: int = 1

    def __post_init__(self) -> None:
        if self.set_index < 0:
            raise ValueError("fault event set index must be non-negative")
        if self.way < 0:
            raise ValueError("fault event way must be non-negative")
        if self.cycle < 0:
            raise ValueError("fault event cycle must be non-negative")
        if self.bits < 1:
            raise ValueError("fault event must flip at least one bit")

    def as_dict(self) -> dict[str, int]:
        return {
            "set": self.set_index,
            "way": self.way,
            "cycle": self.cycle,
            "bits": self.bits,
        }

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "FaultEvent":
        return cls(
            set_index=int(raw.get("set", raw.get("set_index", -1))),
            way=int(raw["way"]),
            cycle=int(raw["cycle"]),
            bits=int(raw.get("bits", 1)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, seeded description of faults to inject."""

    #: Root seed every derived RNG stream is keyed from.
    seed: int = 0
    #: Plane 1: probability per valid line per retention window of a
    #: transient flip of ``rate_bits`` bits (applied to every bank unless
    #: ``bank_rates`` overrides per bank).
    flip_rate: float = 0.0
    #: Optional per-bank rates; length must equal the machine's bank
    #: count when used (checked by the injector, which knows the config).
    bank_rates: tuple[float, ...] | None = None
    #: Bits flipped by each rate-drawn fault (1 = correctable by SECDED).
    rate_bits: int = 1
    #: Plane 1: explicit (set, way, cycle) fault events.
    events: tuple[FaultEvent, ...] = ()
    #: Plane 2: per-workload chaos scripts -- ``chaos[workload][attempt]``
    #: is the worker behaviour for that attempt; attempts beyond the end
    #: of the list behave normally.  The key ``"*"`` applies to any
    #: workload without its own entry.
    chaos: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    #: Plane 2: probabilistic chaos -- ``{action: probability}`` drawn per
    #: (workload, attempt) from a seed-derived stream when no explicit
    #: script matched.
    chaos_rates: Mapping[str, float] = field(default_factory=dict)
    #: How long a ``hang`` action sleeps before running the unit.
    hang_seconds: float = 30.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.flip_rate <= 1.0:
            raise ValueError("flip_rate must be a probability in [0, 1]")
        if self.bank_rates is not None:
            object.__setattr__(
                self, "bank_rates", tuple(float(r) for r in self.bank_rates)
            )
            for r in self.bank_rates:
                if not 0.0 <= r <= 1.0:
                    raise ValueError("bank rates must be probabilities in [0, 1]")
        if self.rate_bits < 1:
            raise ValueError("rate_bits must be at least 1")
        object.__setattr__(
            self,
            "events",
            tuple(
                e if isinstance(e, FaultEvent) else FaultEvent.from_dict(e)
                for e in self.events
            ),
        )
        chaos = {
            str(w): tuple(str(a) for a in seq) for w, seq in self.chaos.items()
        }
        for w, seq in chaos.items():
            for action in seq:
                if action not in CHAOS_ACTIONS:
                    raise ValueError(
                        f"unknown chaos action {action!r} for workload {w!r}; "
                        f"use one of {CHAOS_ACTIONS}"
                    )
        object.__setattr__(self, "chaos", chaos)
        rates = {str(a): float(p) for a, p in self.chaos_rates.items()}
        for action, p in rates.items():
            if action not in CHAOS_ACTIONS or action == "ok":
                raise ValueError(
                    f"chaos_rates key {action!r} must be one of "
                    f"{[a for a in CHAOS_ACTIONS if a != 'ok']}"
                )
            if not 0.0 <= p <= 1.0:
                raise ValueError("chaos rates must be probabilities in [0, 1]")
        object.__setattr__(self, "chaos_rates", rates)
        if self.hang_seconds < 0:
            raise ValueError("hang_seconds must be non-negative")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def has_model_faults(self) -> bool:
        """Whether Plane 1 (hardware-fault injection) is active."""
        if self.events:
            return True
        if self.flip_rate > 0.0:
            return True
        return self.bank_rates is not None and any(
            r > 0.0 for r in self.bank_rates
        )

    def has_chaos(self) -> bool:
        """Whether Plane 2 (harness chaos) is active."""
        if any(seq for seq in self.chaos.values()):
            return True
        return any(p > 0.0 for p in self.chaos_rates.values())

    def rng_seed_for(self, workload: str, technique: str) -> int:
        """Seed for one run's injector RNG stream.

        Independent of attempt number, so a retried workload replays the
        identical hardware-fault sequence bit for bit.
        """
        return _stable_seed(self.seed, "inject", workload, technique)

    def chaos_action(self, workload: str, attempt: int) -> str:
        """Worker behaviour for ``workload`` on its ``attempt``-th try."""
        script = self.chaos.get(workload)
        if script is None:
            script = self.chaos.get("*")
        if script is not None:
            return script[attempt] if attempt < len(script) else "ok"
        if self.chaos_rates:
            import numpy as np

            rng = np.random.default_rng(
                _stable_seed(self.seed, "chaos", workload, attempt)
            )
            for action in sorted(self.chaos_rates):
                if rng.random() < self.chaos_rates[action]:
                    return action
        return "ok"

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"seed": self.seed}
        if self.flip_rate:
            out["flip_rate"] = self.flip_rate
        if self.bank_rates is not None:
            out["bank_rates"] = list(self.bank_rates)
        if self.rate_bits != 1:
            out["rate_bits"] = self.rate_bits
        if self.events:
            out["events"] = [e.as_dict() for e in self.events]
        if self.chaos:
            out["chaos"] = {w: list(seq) for w, seq in self.chaos.items()}
        if self.chaos_rates:
            out["chaos_rates"] = dict(self.chaos_rates)
        if self.hang_seconds != 30.0:
            out["hang_seconds"] = self.hang_seconds
        return out

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "FaultPlan":
        known = {
            "seed", "flip_rate", "bank_rates", "rate_bits", "events",
            "chaos", "chaos_rates", "hang_seconds",
        }
        unknown = set(raw) - known
        if unknown:
            raise ValueError(
                f"unknown fault-plan field(s) {sorted(unknown)}; "
                f"known fields: {sorted(known)}"
            )
        kwargs = dict(raw)
        if "bank_rates" in kwargs and kwargs["bank_rates"] is not None:
            kwargs["bank_rates"] = tuple(kwargs["bank_rates"])
        if "events" in kwargs:
            kwargs["events"] = tuple(
                FaultEvent.from_dict(e) for e in kwargs["events"]
            )
        return cls(**kwargs)

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> Path:
        return atomic_write(path, self.to_json() + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        try:
            text = Path(path).read_text(encoding="utf-8")
            return cls.from_json(text)
        except (OSError, json.JSONDecodeError, ValueError, TypeError) as exc:
            raise ValueError(f"cannot load fault plan from {path}: {exc}") from exc
