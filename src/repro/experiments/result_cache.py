"""Content-addressed sweep result cache.

A sweep unit -- one workload run under every requested technique -- is a
pure function of its inputs: the benchmark profile parameters, the
instruction budget, the trace seed, the technique list, the system
configuration, the fault plan, and the simulation engine itself.
:func:`unit_fingerprint` hashes exactly that closure; :class:`ResultCache`
maps the hash to the unit's serialised comparisons on disk.  The one
sweep path, ``resilient_sweep`` (``repro sweep``, ``repro figure`` and
``repro table``), probes it with :func:`probe_unit` before running a
unit, so re-plotting a figure or a table after an unrelated edit skips
straight to rendering, and the same sweep again finishes one that a
signal or a failure cut short: only its unfinished units run.

Why this is sound: comparisons round-trip through
:func:`~repro.experiments.runner.comparison_to_dict`, whose JSON float
encoding is shortest-round-trip -- a cache hit is *bit-for-bit* equal to
re-running the unit.
Any input the simulation can observe is in the fingerprint, including
:data:`~repro.timing.result.SIM_ENGINE_VERSION`, which must be bumped
whenever the engine's semantics change; profile *parameters* (not just
names) are hashed so editing a workload's generator invalidates its
units.

The cache directory is shared state between runs, so writes are atomic
(write-to-temp + rename) and reads treat any undecodable entry as a miss
rather than an error.  ``sweep_cache.{hits,misses,stores,corrupt}``
counters land in the process-wide metrics registry.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

from repro.config import SimConfig, config_fields
from repro.experiments.runner import (
    RunComparison,
    comparison_from_dict,
    comparison_to_dict,
    profiles_for,
)
from repro.faults.plan import FaultPlan
from repro.obs.metrics import get_default_registry
from repro.timing.result import SIM_ENGINE_VERSION
from repro.util import atomic_write_json, stable_fingerprint

__all__ = ["ResultCache", "default_cache_dir", "probe_unit", "unit_fingerprint"]

_MAGIC = "repro-sweep-result-cache-v1"


def default_cache_dir() -> Path:
    """Cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro/results``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "results"


def unit_fingerprint(
    config: SimConfig,
    workload: str,
    techniques: tuple[str, ...],
    seed: int,
    plan: FaultPlan | None = None,
) -> str:
    """Content address of one sweep unit's complete input closure.

    Unknown workloads raise (KeyError from profile resolution) -- the
    caller runs such units uncached so they fail with their real error.
    """
    payload = {
        "engine": SIM_ENGINE_VERSION,
        "config": {k: v for k, v in sorted(config_fields(config).items())},
        "workload": workload,
        "profiles": [
            dataclasses.asdict(p) for p in profiles_for(config, workload)
        ],
        "seed": seed,
        "techniques": list(techniques),
        "plan": plan.as_dict() if plan is not None else None,
    }
    return stable_fingerprint(payload, length=64)


def probe_unit(
    cache: ResultCache | None,
    config: SimConfig,
    workload: str,
    techniques: tuple[str, ...],
    seed: int,
    plan: FaultPlan | None = None,
) -> tuple[str, list[RunComparison] | None]:
    """Fingerprint one unit and look it up: ``(fingerprint, hit-or-None)``.

    The fingerprint is ``""`` without a cache (nothing would store it)
    and when the unit cannot be fingerprinted (unknown workload -- it
    then runs uncached and fails with its real error).  A hit is
    re-shaped into technique order and sanity-checked against the unit
    it claims to be; anything off is a miss.
    """
    if cache is None:
        return "", None
    try:
        fingerprint = unit_fingerprint(config, workload, techniques, seed, plan)
    except Exception:
        return "", None
    hit = cache.get(fingerprint)
    if hit is None:
        return fingerprint, None
    by_tech = {c.technique: c for c in hit if c.workload == workload}
    if set(by_tech) != set(techniques) or len(hit) != len(techniques):
        return fingerprint, None
    return fingerprint, [by_tech[t] for t in techniques]


class ResultCache:
    """Directory of ``<fingerprint>.json`` sweep-unit results.

    Self-contained flat files (magic + fingerprint + serialised
    comparisons), atomically written: concurrent sweeps over the same
    cache directory at worst both compute a unit and one rename wins,
    with identical content either way.  Corrupt or foreign files are
    counted and treated as misses, never raised -- a damaged cache can
    only cost recomputation.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        # Instance-level tallies (the process-wide sweep_cache.* counters
        # aggregate across caches; these feed one campaign's manifest).
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0

    def stats(self) -> dict[str, float]:
        """This cache instance's probe statistics (manifest section)."""
        probes = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "hit_rate": self.hits / probes if probes else 0.0,
        }

    def _path(self, fingerprint: str) -> Path:
        return self.root / f"{fingerprint}.json"

    def get(self, fingerprint: str) -> list[RunComparison] | None:
        """The unit's comparisons, or ``None`` on miss/corruption."""
        registry = get_default_registry()
        try:
            text = self._path(fingerprint).read_text(encoding="utf-8")
        except (FileNotFoundError, OSError):
            self.misses += 1
            registry.counter("sweep_cache.misses").inc()
            return None
        try:
            payload = json.loads(text)
            if (
                payload.get("magic") != _MAGIC
                or payload.get("fingerprint") != fingerprint
            ):
                raise ValueError("wrong magic or fingerprint")
            comparisons = [
                comparison_from_dict(raw) for raw in payload["comparisons"]
            ]
        except Exception:
            self.corrupt += 1
            self.misses += 1
            registry.counter("sweep_cache.corrupt").inc()
            registry.counter("sweep_cache.misses").inc()
            return None
        self.hits += 1
        registry.counter("sweep_cache.hits").inc()
        return comparisons

    def put(self, fingerprint: str, comparisons: list[RunComparison]) -> None:
        """Persist one completed unit (atomic; best-effort on a full disk)."""
        payload = {
            "magic": _MAGIC,
            "fingerprint": fingerprint,
            "comparisons": [comparison_to_dict(c) for c in comparisons],
        }
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            atomic_write_json(self._path(fingerprint), payload, indent=None)
        except OSError:
            return
        self.stores += 1
        get_default_registry().counter("sweep_cache.stores").inc()
