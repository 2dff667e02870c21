"""Per-benchmark behaviour profiles for the 34 workloads of Table 1.

Each profile parameterises the synthetic generator so that the proxy
reproduces the qualitative LLC behaviour the paper attributes to its
namesake (Section 7.2):

* ``libquantum``/``milc``/``lbm``/``bwaves`` stream with near-100% miss
  rates and working sets far larger than the LLC ("the data reuse is very
  small ... ESTEEM aggressively reduces the cache active fraction").
* ``omnetpp``/``xalancbmk`` are non-LRU (cyclic scans; Algorithm 1's guard
  exists for them, and ESTEEM shows a small loss on them).
* ``mcf``/``soplex`` have working sets larger than the LLC with scattered
  reuse (small ESTEEM loss).
* ``gamess``/``povray``/``gobmk``/``hmmer`` barely use the LLC, so nearly
  all of it can be switched off (gamess posts the paper's largest single-
  core energy saving, 68.7%).
* ``h264ref`` is strongly phased -- it is the Figure 2 example workload.
* The HPC proxies: ``xsbench`` (huge randomly-accessed cross-section
  tables), ``amg2013`` (large sparse matvec), ``lulesh``/``comd`` (medium,
  phased stencil/MD), ``nekbone`` (small working set, compute-bound).

Working-set sizes are in 64 B lines: the single-core L2 holds 65 536 lines
(4 MB).  ``gap_mean`` is the mean instruction distance between L2 accesses
(so L2 accesses-per-kilo-instruction = 1000 / (gap_mean + 1)).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ALL_BENCHMARKS",
    "BenchmarkProfile",
    "HPC_BENCHMARKS",
    "PhaseSpec",
    "SPEC_BENCHMARKS",
    "get_profile",
]


@dataclass(frozen=True)
class PhaseSpec:
    """One execution phase of a workload.

    Attributes
    ----------
    ws_lines:
        Working-set size in cache lines (64 B each); 65536 lines = 4 MB.
    p_new:
        Probability a record touches the next cold/streaming line.
    p_near:
        Probability of a geometric stack-distance reuse; the remainder
        ``1 - p_new - p_near`` is a uniform (``far``) reuse.
    d_mean:
        Mean recency depth of near reuses, in per-set position units
        (1.0 keeps hits at MRU; ~8 spreads them across a 16-way set).
    pattern:
        ``"mixture"`` (default LRU-friendly blend), ``"scan"`` (cyclic
        anti-LRU walk), or ``"stream"`` (cold sequential).
    segment_records:
        Records generated before the generator moves to the next phase
        (phases cycle; this drives intra-application variation, Fig. 2).
    """

    ws_lines: int
    p_new: float = 0.05
    p_near: float = 0.80
    d_mean: float = 3.0
    pattern: str = "mixture"
    segment_records: int = 50_000

    def __post_init__(self) -> None:
        if self.ws_lines < 1:
            raise ValueError("working set must contain at least one line")
        if not (0.0 <= self.p_new <= 1.0 and 0.0 <= self.p_near <= 1.0):
            raise ValueError("probabilities must be in [0, 1]")
        if self.p_new + self.p_near > 1.0 + 1e-9:
            raise ValueError("p_new + p_near must not exceed 1")
        if self.d_mean < 1.0:
            raise ValueError("d_mean must be at least 1")
        if self.pattern not in ("mixture", "scan", "stream"):
            raise ValueError(f"unknown pattern {self.pattern!r}")
        if self.segment_records < 1:
            raise ValueError("segment must contain at least one record")


@dataclass(frozen=True)
class BenchmarkProfile:
    """Generator parameters standing in for one benchmark's ref-input run."""

    name: str
    acronym: str
    suite: str  # "spec" or "hpc"
    phases: tuple[PhaseSpec, ...]
    write_fraction: float
    #: Mean instructions between consecutive L2 accesses.
    gap_mean: float
    #: Cycles per instruction for the non-L2 work (issue + L1 hits).
    base_cpi: float
    #: Memory-level parallelism: divisor on the exposed miss penalty.
    #: Streaming/prefetchable codes overlap misses; pointer chases do not.
    mem_mlp: float = 1.5
    #: Marks the omnetpp/xalancbmk class whose hit histograms are bumpy
    #: (the non-LRU guard of Algorithm 1 is aimed at them).
    nonlru: bool = False
    #: Distinct-line LLC footprint accumulated at paper scale (10 B
    #: fast-forward + 400 M instructions); the simulator pre-fills this
    #: many stale valid lines before measurement.  Small-footprint codes
    #: (gamess, povray, ...) leave most of the LLC invalid, which is where
    #: RPV's savings come from (Section 7.2).
    footprint_lines: int = 0
    description: str = ""

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("profile needs at least one phase")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write fraction must be in [0, 1]")
        if self.gap_mean < 0:
            raise ValueError("gap mean must be non-negative")
        if self.base_cpi <= 0:
            raise ValueError("base CPI must be positive")

    @property
    def l2_apki(self) -> float:
        """L2 accesses per kilo-instruction implied by ``gap_mean``."""
        return 1000.0 / (self.gap_mean + 1.0)

    @property
    def max_ws_lines(self) -> int:
        return max(p.ws_lines for p in self.phases)

    @property
    def is_nonlru(self) -> bool:
        """Whether this workload exhibits non-LRU hit-position behaviour."""
        return self.nonlru or any(p.pattern == "scan" for p in self.phases)


def _p(
    ws: int,
    p_new: float = 0.05,
    p_near: float = 0.80,
    d_mean: float = 3.0,
    pattern: str = "mixture",
    seg: int = 40_000,
) -> PhaseSpec:
    return PhaseSpec(
        ws_lines=ws,
        p_new=p_new,
        p_near=p_near,
        d_mean=d_mean,
        pattern=pattern,
        segment_records=seg,
    )


def _bench(
    name: str,
    acronym: str,
    suite: str,
    phases: tuple[PhaseSpec, ...],
    wf: float,
    gap: float,
    cpi: float,
    desc: str,
    mlp: float = 1.5,
    nonlru: bool = False,
) -> BenchmarkProfile:
    return BenchmarkProfile(
        name=name,
        acronym=acronym,
        suite=suite,
        phases=phases,
        write_fraction=wf,
        gap_mean=gap,
        base_cpi=cpi,
        mem_mlp=mlp,
        nonlru=nonlru,
        footprint_lines=_FOOTPRINT_LINES[name],
        description=desc,
    )


#: Paper-scale distinct-line LLC footprints (10 B fast-forward + 400 M
#: instructions) in 64 B lines; 65 536 lines = 4 MB.  Sources: SPEC CPU2006
#: working-set characterisations (small hot sets for gamess/povray/hmmer,
#: multi-hundred-MB streams for lbm/libquantum/bwaves) and proxy-app docs.
_FOOTPRINT_LINES: dict[str, int] = {
    "astar": 80_000,
    "bwaves": 500_000,
    "bzip2": 56_000,
    "cactusADM": 150_000,
    "calculix": 16_000,
    "dealII": 52_000,
    "gamess": 8_000,
    "gcc": 60_000,
    "gemsFDTD": 400_000,
    "gobmk": 25_000,
    "gromacs": 25_000,
    "h264ref": 95_000,
    "hmmer": 9_000,
    "lbm": 500_000,
    "leslie3d": 300_000,
    "libquantum": 500_000,
    "mcf": 300_000,
    "milc": 400_000,
    "namd": 18_000,
    "omnetpp": 150_000,
    "perlbench": 42_000,
    "povray": 11_000,
    "sjeng": 38_000,
    "soplex": 250_000,
    "sphinx": 48_000,
    "tonto": 20_000,
    "wrf": 150_000,
    "xalancbmk": 150_000,
    "zeusmp": 58_000,
    "amg2013": 350_000,
    "comd": 42_000,
    "lulesh": 60_000,
    "nekbone": 28_000,
    "xsbench": 500_000,
}


# ----------------------------------------------------------------------
# SPEC CPU2006 (29 benchmarks, ref-input proxies)
# ----------------------------------------------------------------------

SPEC_BENCHMARKS: tuple[BenchmarkProfile, ...] = (
    _bench(
        "astar", "As", "spec",
        (_p(18_000, p_new=0.06, p_near=0.55, d_mean=8.0),),
        0.22, 110.0, 1.10, "path-finding; pointer chasing, moderate WS",
        mlp=1.1,
    ),
    _bench(
        "bwaves", "Bw", "spec",
        (_p(150_000, p_new=0.60, p_near=0.36, d_mean=2.0),),
        0.30, 40.0, 0.90, "blast-wave CFD; streaming, WS >> LLC", mlp=4.0,
    ),
    _bench(
        "bzip2", "Bz", "spec",
        (_p(28_000, p_new=0.08, p_near=0.62, d_mean=5.0),),
        0.35, 160.0, 1.00, "compression; medium WS, mixed reuse",
    ),
    _bench(
        "cactusADM", "Cd", "spec",
        (_p(35_000, p_new=0.15, p_near=0.60, d_mean=4.0),),
        0.33, 90.0, 0.95, "numerical relativity; regular stencil", mlp=2.0,
    ),
    _bench(
        "calculix", "Ca", "spec",
        (_p(5_000, p_new=0.03, p_near=0.85, d_mean=2.0),),
        0.25, 500.0, 0.80, "FEM solver; small hot working set",
    ),
    _bench(
        "dealII", "Dl", "spec",
        (_p(20_000, p_new=0.07, p_near=0.70, d_mean=4.0),),
        0.28, 180.0, 0.95, "adaptive FEM; medium WS",
    ),
    _bench(
        "gamess", "Ga", "spec",
        (_p(3_000, p_new=0.02, p_near=0.90, d_mean=1.5),),
        0.20, 900.0, 0.75, "quantum chemistry; tiny WS, largest ESTEEM saving",
    ),
    _bench(
        "gcc", "Gc", "spec",
        (
            _p(40_000, p_new=0.10, p_near=0.60, d_mean=6.0, seg=15_000),
            _p(12_000, p_new=0.05, p_near=0.75, d_mean=3.0, seg=15_000),
        ),
        0.30, 140.0, 1.20, "compiler; phased, medium-large WS",
    ),
    _bench(
        "gemsFDTD", "Gm", "spec",
        (_p(120_000, p_new=0.50, p_near=0.45, d_mean=2.5),),
        0.32, 45.0, 0.95, "FDTD electromagnetics; streaming sweeps", mlp=3.5,
    ),
    _bench(
        "gobmk", "Gk", "spec",
        (_p(8_000, p_new=0.04, p_near=0.80, d_mean=2.5),),
        0.24, 120.0, 1.15, "Go engine; small WS, L2-latency sensitive",
    ),
    _bench(
        "gromacs", "Gr", "spec",
        (_p(9_000, p_new=0.05, p_near=0.80, d_mean=2.5),),
        0.27, 300.0, 0.85, "molecular dynamics; small WS",
    ),
    _bench(
        "h264ref", "H2", "spec",
        (
            _p(4_000, p_new=0.03, p_near=0.85, d_mean=2.0, seg=8_000),
            _p(90_000, p_new=0.08, p_near=0.70, d_mean=8.0, seg=8_000),
            _p(20_000, p_new=0.05, p_near=0.75, d_mean=4.0, seg=8_000),
        ),
        0.30, 150.0, 1.00, "video encoder; strongly phased (Figure 2 example)",
    ),
    _bench(
        "hmmer", "Hm", "spec",
        (_p(3_500, p_new=0.02, p_near=0.90, d_mean=1.5),),
        0.35, 200.0, 0.80, "profile HMM search; tiny hot tables",
    ),
    _bench(
        "lbm", "Lb", "spec",
        (_p(180_000, p_new=0.70, p_near=0.27, d_mean=2.0),),
        0.45, 35.0, 0.90, "lattice Boltzmann; streaming, write heavy", mlp=4.0,
    ),
    _bench(
        "leslie3d", "Ls", "spec",
        (_p(80_000, p_new=0.35, p_near=0.58, d_mean=3.0),),
        0.33, 60.0, 0.95, "combustion CFD; large sweeping WS", mlp=3.0,
    ),
    _bench(
        "libquantum", "Lq", "spec",
        (_p(200_000, pattern="stream"),),
        0.25, 30.0, 0.85, "quantum simulation; pure streaming, ~100% miss",
        mlp=4.0,
    ),
    _bench(
        "mcf", "Mc", "spec",
        (_p(250_000, p_new=0.35, p_near=0.30, d_mean=6.0),),
        0.20, 50.0, 1.40, "network simplex; WS >> LLC, scattered deep reuse",
        mlp=1.3,
    ),
    _bench(
        "milc", "Mi", "spec",
        (_p(160_000, p_new=0.55, p_near=0.40, d_mean=2.0),),
        0.30, 40.0, 0.95, "lattice QCD; streaming with little reuse", mlp=3.0,
    ),
    _bench(
        "namd", "Nd", "spec",
        (_p(6_000, p_new=0.04, p_near=0.82, d_mean=2.0),),
        0.26, 400.0, 0.80, "molecular dynamics; small WS",
    ),
    _bench(
        "omnetpp", "Om", "spec",
        (_p(72_000, p_new=0.02, p_near=0.10, d_mean=4.0),),
        0.28, 90.0, 1.30, "discrete-event sim; non-LRU scattered reuse",
        mlp=1.2, nonlru=True,
    ),
    _bench(
        "perlbench", "Pe", "spec",
        (_p(12_000, p_new=0.06, p_near=0.72, d_mean=4.0),),
        0.30, 220.0, 1.10, "perl interpreter; medium WS",
    ),
    _bench(
        "povray", "Po", "spec",
        (_p(4_000, p_new=0.02, p_near=0.88, d_mean=1.8),),
        0.22, 700.0, 0.80, "ray tracer; tiny WS",
    ),
    _bench(
        "sjeng", "Si", "spec",
        (_p(16_000, p_new=0.06, p_near=0.70, d_mean=4.0),),
        0.24, 250.0, 1.10, "chess engine; medium hash tables",
    ),
    _bench(
        "soplex", "So", "spec",
        (_p(140_000, p_new=0.20, p_near=0.35, d_mean=6.0),),
        0.27, 70.0, 1.20, "LP solver; WS > LLC, scattered reuse", mlp=1.8,
    ),
    _bench(
        "sphinx", "Sp", "spec",
        (_p(26_000, p_new=0.08, p_near=0.72, d_mean=3.0),),
        0.25, 100.0, 1.00, "speech recognition; medium WS, good reuse",
    ),
    _bench(
        "tonto", "To", "spec",
        (_p(7_000, p_new=0.04, p_near=0.82, d_mean=2.2),),
        0.28, 350.0, 0.85, "quantum crystallography; small WS",
    ),
    _bench(
        "wrf", "Wr", "spec",
        (
            _p(24_000, p_new=0.10, p_near=0.65, d_mean=3.5, seg=20_000),
            _p(50_000, p_new=0.25, p_near=0.50, d_mean=3.0, seg=20_000),
        ),
        0.32, 130.0, 0.95, "weather model; phased stencil sweeps", mlp=2.0,
    ),
    _bench(
        "xalancbmk", "Xa", "spec",
        (
            _p(68_000, p_new=0.03, p_near=0.20, d_mean=5.0, seg=20_000),
            _p(52_000, p_new=0.02, p_near=0.10, d_mean=4.0, seg=10_000),
        ),
        0.26, 80.0, 1.25, "XSLT processor; non-LRU scattered reuse",
        mlp=1.3, nonlru=True,
    ),
    _bench(
        "zeusmp", "Ze", "spec",
        (_p(30_000, p_new=0.12, p_near=0.62, d_mean=3.0),),
        0.34, 120.0, 0.95, "astrophysical MHD; medium WS", mlp=2.0,
    ),
)

# ----------------------------------------------------------------------
# HPC proxy apps (shown in italics in Table 1)
# ----------------------------------------------------------------------

HPC_BENCHMARKS: tuple[BenchmarkProfile, ...] = (
    _bench(
        "amg2013", "Am", "hpc",
        (_p(200_000, p_new=0.20, p_near=0.30, d_mean=6.0),),
        0.30, 45.0, 1.05, "algebraic multigrid; large sparse matvec", mlp=2.5,
    ),
    _bench(
        "comd", "Co", "hpc",
        (_p(20_000, p_new=0.06, p_near=0.74, d_mean=3.0),),
        0.28, 150.0, 0.90, "classical MD proxy; neighbour lists, good locality",
    ),
    _bench(
        "lulesh", "Lu", "hpc",
        (
            _p(30_000, p_new=0.10, p_near=0.68, d_mean=3.0, seg=15_000),
            _p(60_000, p_new=0.25, p_near=0.50, d_mean=3.0, seg=15_000),
        ),
        0.35, 100.0, 0.95, "shock hydro proxy; phased stencil", mlp=2.0,
    ),
    _bench(
        "nekbone", "Ne", "hpc",
        (_p(10_000, p_new=0.04, p_near=0.82, d_mean=2.0),),
        0.25, 300.0, 0.80, "spectral-element proxy; small WS, compute bound",
    ),
    _bench(
        "xsbench", "Xb", "hpc",
        (_p(400_000, p_new=0.30, p_near=0.10, d_mean=2.0),),
        0.20, 25.0, 1.10, "Monte Carlo neutronics lookup; huge random WS",
        mlp=2.5,
    ),
)

ALL_BENCHMARKS: tuple[BenchmarkProfile, ...] = SPEC_BENCHMARKS + HPC_BENCHMARKS

_BY_NAME = {b.name: b for b in ALL_BENCHMARKS}
_BY_ACRONYM = {b.acronym: b for b in ALL_BENCHMARKS}


def get_profile(name: str) -> BenchmarkProfile:
    """Look up a profile by full name ("h264ref") or acronym ("H2")."""
    profile = _BY_NAME.get(name) or _BY_ACRONYM.get(name)
    if profile is None:
        raise KeyError(
            f"unknown benchmark {name!r}; known: {sorted(_BY_NAME)}"
        )
    return profile
