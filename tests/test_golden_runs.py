"""Pinned simulator output for traced and technology runs.

These sha256 digests pin what those runs produce -- the ``repro trace``
event stream, a traced faulted run, technology comparisons (a
``TechSystem`` with per-line write counts armed and, off eDRAM, a write
penalty), and the techniques whose constants no other pin reaches
(drowsy ESTEEM, ECC-extended refresh, selective-sets) -- so a change to
how they are driven must leave every byte in place.  They were recorded when such runs took the reference loop
(:meth:`System._run_reference <repro.timing.system.System._run_reference>`)
and hold on the fast loop they take now.

Regenerate the fixture only for a deliberate change in simulated
behaviour::

    PYTHONPATH=src python tests/test_golden_runs.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.config import SimConfig
from repro.experiments.runner import Runner, _system_result_to_dict
from repro.faults import FaultPlan
from repro.obs import Tracer
from repro.tech import TECHNOLOGIES, evaluate_technology
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import generate_trace

FIXTURE = Path(__file__).with_name("golden_runs.json")

#: The fault-injection scale of ``tests/faults/test_inject.py``.
FAULT_CFG = SimConfig.scaled(
    retention_us=12.5, instructions_per_core=200_000, interval_cycles=100_000
)
#: Technology comparisons.
SMALL_INSTRUCTIONS = 300_000
SMALL_CFG = SimConfig.scaled(instructions_per_core=SMALL_INSTRUCTIONS)
#: Technique runs: a short interval, so sphinx closes seven intervals and
#: the drowsy wake-up, leakage and retention constants, the ECC strength
#: and overhead, and the selective-sets floor all reach the result.
TECHNIQUE_CFG = SimConfig.scaled(
    instructions_per_core=SMALL_INSTRUCTIONS, interval_cycles=100_000
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _result_digest(result) -> str:
    return _sha(json.dumps(_system_result_to_dict(result), sort_keys=True))


def _small_trace(workload: str):
    return generate_trace(get_profile(workload), SMALL_INSTRUCTIONS, seed=0)


def cli_trace() -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(
            ["trace", "-w", "h264ref", "-t", "esteem", "--format", "jsonl", "-q"]
        )
    assert code == 0
    text = out.getvalue()
    return {"events": text.count("\n"), "sha256": _sha(text)}


def faulted_traced() -> dict:
    tracer = Tracer()
    result = Runner(
        FAULT_CFG,
        seed=0,
        tracer=tracer,
        fault_plan=FaultPlan(seed=5, flip_rate=2e-4),
    ).run("gamess", "esteem")
    return {
        "events": len(tracer),
        "events_sha256": _sha(tracer.to_jsonl()),
        "result_sha256": _result_digest(result),
    }


def technology(name: str, technique: str) -> dict:
    r = evaluate_technology(
        TECHNOLOGIES[name], SMALL_CFG, [_small_trace("gamess")], technique
    )
    return {"result_sha256": _result_digest(r.result)}


def technique(name: str) -> dict:
    # ``dataclasses.asdict`` of the result, timeline records included.
    result = Runner(TECHNIQUE_CFG, seed=0).run("sphinx", name)
    return {"result_sha256": _sha(json.dumps(asdict(result), sort_keys=True))}


CASES = {
    "trace/h264ref/esteem/jsonl": cli_trace,
    "faults/gamess/esteem/traced": faulted_traced,
    "tech/edram/esteem": lambda: technology("edram", "esteem"),
    "tech/sttram/baseline": lambda: technology("sttram", "baseline"),
    "technique/sphinx/ecc": lambda: technique("ecc"),
    "technique/sphinx/esteem-drowsy": lambda: technique("esteem-drowsy"),
    "technique/sphinx/selective-sets": lambda: technique("selective-sets"),
}


def _load() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case():
    assert sorted(_load()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_matches_pinned_digest(case):
    assert CASES[case]() == _load()[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_runs.py --write")
    FIXTURE.write_text(
        json.dumps({name: make() for name, make in sorted(CASES.items())}, indent=1)
        + "\n"
    )
    print(f"wrote {len(CASES)} digests to {FIXTURE}")
