"""The benchmark's four workloads: seeded inputs, ops and reference checks.

A workload builds its inputs once (`__init__` is the timed set-up) and then
hands out cycles of ops.  A cycle is a fixed multiset of ops whose order the
seed shuffles (`pd-crystals` keeps one fixed order), so every run measures
the same mix of work whatever the seed.  Each menu repeats ops of a few
kinds so that, sorted by latency, the median and the tail percentile (10
samples beyond it) fall where kinds of neighbouring sizes meet: there a
quantile moves smoothly with the share of ops that ran while the machine
was slow, where inside one plateau of identical ops it would jump.  `cycle_s` is a cycle's
nominal length; a run executes ``max(1, seconds // cycle_s)`` cycles, so the
number of ops, and with it the tail percentile, is fixed by ``--seconds``.
An op returns the units of work it completed and a list of problems; an op
that raises or reports a problem counts as failed, and the run goes on.

Every generated input is valid by construction: each structure matrix is
tested for invertibility mod p before it is used or written to a file.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# Layer functions are called through their modules, so that the traced run,
# which rebinds module attributes, sees every call the benchmark makes.
from crystaframe import GaloisField, PDPresentation, Residues, pd_frame
from crystaframe import frames, homsweep, linalg, nabla, pdenv, runner, scenario, windows
from crystaframe.monomial import MonomialAlgebra
from crystaframe.windows import ClassTable, WindowClass

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"
GOLDEN = SCENARIO_DIR / "golden" / "classify_rank1_zp2.json"


def _psi_invertible_mod_p(flat, rank: int, p: int) -> bool:
    if rank == 0:
        return True
    if rank == 1:
        return flat[0] % p != 0
    return (flat[0] * flat[3] - flat[1] * flat[2]) % p != 0


def random_psi(rng: random.Random, rank: int, mod: int, p: int):
    """A flat rank x rank integer matrix, invertible mod p."""
    while True:
        flat = [rng.randrange(mod) for _ in range(rank * rank)]
        if _psi_invertible_mod_p(flat, rank, p):
            return flat


def _as_rows(flat, rank):
    return tuple(tuple(flat[i * rank : (i + 1) * rank]) for i in range(rank))


def _order_gl(rank: int, p: int, m: int) -> int:
    """|GL_rank(Z/p^m)|."""
    out = p ** (rank * rank * (m - 1))
    for i in range(rank):
        out *= p ** rank - p ** i
    return out


class Workload:
    name = ""
    unit = ""
    cycle_s = 1.0  # nominal seconds per full-scale cycle

    def __init__(self, seed: int, scale: str = "full"):
        self.seed = seed
        self.scale = scale
        self.rng = random.Random(seed)
        self.order_rng = self.rng

    def cycle(self, in_process: bool = False):
        """The ops of one cycle, as (label, callable) in seeded order."""
        ops = list(self.ops(in_process))
        self.order_rng.shuffle(ops)
        return ops

    def ops(self, in_process=False):
        raise NotImplementedError

    def close(self):
        pass


# -- lemma-sweep ----------------------------------------------------------------


class LemmaSweep(Workload):
    """`homsweep.sweep_win_phi_mod` on seeded random windows over Z/8 and Z/27.

    Windows per (rank, d) bucket follow the proportions of the real rank <= 2
    class tables, so the bucket batches have the shapes and relative sizes
    of acceptance criterion 5; each op also carries one rank-0 window, as
    the real tables do.  One op per cycle fills a 120,000-system chunk in
    its largest bucket pair (346^2 systems of 8x8 at most).  The other 48
    ops form a ladder of sizes from 60 to 165 windows, so that the median
    and the tail move smoothly when the machine's speed changes during a
    run, rather than jumping between two plateaus.
    """

    name = "lemma-sweep"
    unit = "pairs"
    cycle_s = 21.0
    PROPORTIONS = {
        8: {(1, 0): 4, (1, 1): 4, (2, 0): 60, (2, 1): 32, (2, 2): 60},
        27: {(1, 0): 18, (1, 1): 18, (2, 0): 720, (2, 1): 486, (2, 2): 720},
    }
    # (modulus, nonzero windows per op, ops per cycle)
    MENU = {
        "full": [(27, 943, 1)] + [(q, k, 3) for k in range(60, 166, 15) for q in (8, 27)],
        "tiny": [(27, 24, 1), (8, 24, 1)],
    }

    def __init__(self, seed, scale="full"):
        super().__init__(seed, scale)
        self.frames = {8: frames.lift_frame(Residues(2, 3)), 27: frames.lift_frame(Residues(3, 3))}
        for q, fr in self.frames.items():
            linalg.tables(fr.p, fr.A.m)
        self.inputs = []
        for q, k, count in self.MENU[scale]:
            for _ in range(count):
                self.inputs.append((q, k, self._tables(q, k)))

    @classmethod
    def allocate(cls, q: int, k: int) -> dict:
        """Windows per (rank, d): largest remainder, at least one per bucket."""
        props = cls.PROPORTIONS[q]
        total = sum(props.values())
        raw = {b: k * v / total for b, v in props.items()}
        out = {b: max(1, int(x)) for b, x in raw.items()}
        by_remainder = sorted(props, key=lambda b: (int(raw[b]) - raw[b], b))
        for b in by_remainder[: max(0, k - sum(out.values()))]:
            out[b] += 1
        return out

    def _tables(self, q, k):
        p = self.frames[q].p
        tables = [ClassTable("lemma-sweep", 0, [WindowClass(0, 0, (), 1)])]
        for rank in (1, 2):
            table = ClassTable("lemma-sweep", rank)
            for (r, d), n in sorted(self.allocate(q, k).items()):
                if r != rank:
                    continue
                for _ in range(n):
                    flat = random_psi(self.rng, r, q, p)
                    table.classes.append(WindowClass(d, r - d, _as_rows(flat, r), 1))
            tables.append(table)
        return tables

    def ops(self, in_process=False):
        for q, k, tables in self.inputs:
            yield f"sweep Z/{q} K={k}", lambda q=q, k=k, tables=tables: self._sweep(q, k, tables)

    def _sweep(self, q, k, tables):
        rep = homsweep.sweep_win_phi_mod(self.frames[q], tables)
        total = sum(len(t.classes) for t in tables)
        problems = []
        if not rep.passed:
            problems.append(
                f"lemma failed: {len(rep.injectivity_failures)} injectivity, "
                f"{len(rep.cokernel_failures)} cokernel"
            )
        if rep.pairs_checked != k * k:
            problems.append(f"pairs_checked {rep.pairs_checked} != {k * k}")
        if rep.pairs_trivial != total * total - k * k:
            problems.append(f"pairs_trivial {rep.pairs_trivial} != {total * total - k * k}")
        return rep.pairs_checked, problems


# -- classify ---------------------------------------------------------------------


class Classify(Workload):
    """Exhaustive `classify_windows`: orbit BFS on lift frames at rank 2,
    brute-force isomorphism scans on Witt frames at rank 1.

    Z/8 ops hold the median and Z/9 ops the tail, next to the Witt frames
    W_2(F_3) and W_2(F_2[e]); Z/27 (most of the run's candidates), Z/16 and
    W_2(F_4) lie beyond the tail and count in `work_per_s`.
    """

    name = "classify"
    unit = "candidates"
    cycle_s = 22.0
    # (frame key, rank, ops per cycle)
    MENU = {
        "full": [
            ("Z/27", 2, 1), ("Z/16", 2, 1), ("Z/9", 2, 20), ("Z/8", 2, 32),
            ("W2(F3)", 1, 3), ("W2(F4)", 1, 1), ("W2(F2[e])", 1, 2),
        ],
        "tiny": [("Z/8", 2, 1), ("W2(F3)", 1, 1)],
    }

    def __init__(self, seed, scale="full", references=None):
        super().__init__(seed, scale)
        builders = {
            "Z/8": lambda: frames.lift_frame(Residues(2, 3)),
            "Z/9": lambda: frames.lift_frame(Residues(3, 2)),
            "Z/16": lambda: frames.lift_frame(Residues(2, 4)),
            "Z/27": lambda: frames.lift_frame(Residues(3, 3)),
            "W2(F3)": lambda: frames.witt_frame(MonomialAlgebra(Residues(3, 1), []), 2),
            "W2(F4)": lambda: frames.witt_frame(MonomialAlgebra(GaloisField(2, 2), []), 2),
            "W2(F2[e])": lambda: frames.witt_frame(MonomialAlgebra(Residues(2, 1), [("e", 0, 2)]), 2),
        }
        needed = {key for key, _, _ in self.MENU[scale]}
        self.frames = {key: build() for key, build in builders.items() if key in needed}
        self.references = references or self.default_references()

    @staticmethod
    def default_references():
        """Class counts and sum of orbit sizes, (r+1) * #invertible Psi.

        Invertible counts come from |GL_2(Z/p^m)| for lift frames and from
        the unit count of the local carrier (size 9 or 16, residue field of
        3, 4 or 2 elements) for the rank-1 Witt frames.
        """
        return {
            "classes": {
                "Z/8": 152, "Z/9": 210, "Z/16": 624, "Z/27": 1926,
                "W2(F3)": 12, "W2(F4)": 4, "W2(F2[e])": 4,
            },
            "orbit_total": {
                "Z/8": 3 * _order_gl(2, 2, 3),
                "Z/9": 3 * _order_gl(2, 3, 2),
                "Z/16": 3 * _order_gl(2, 2, 4),
                "Z/27": 3 * _order_gl(2, 3, 3),
                "W2(F3)": 2 * (9 - 9 // 3),
                "W2(F4)": 2 * (16 - 16 // 4),
                "W2(F2[e])": 2 * (16 - 16 // 2),
            },
        }

    def ops(self, in_process=False):
        for key, rank, count in self.MENU[self.scale]:
            for _ in range(count):
                yield f"classify {key} rank {rank}", lambda key=key, rank=rank: self._classify(key, rank)

    def _classify(self, key, rank):
        frame = self.frames[key]
        table = windows.classify_windows(frame, rank, budget=1 << 22)
        problems = []
        want = self.references["classes"][key]
        if len(table.classes) != want:
            problems.append(f"{key}: {len(table.classes)} classes, expected {want}")
        orbit_total = sum(c.orbit_size for c in table.classes)
        want = self.references["orbit_total"][key]
        if orbit_total != want:
            problems.append(f"{key}: orbit sizes sum to {orbit_total}, expected {want}")
        size = frame.A.modulus if frame.kind == "lift" else frame.A.size()
        return (rank + 1) * size ** (rank * rank), problems


# -- pd-crystals -------------------------------------------------------------------


ONE_VAR = (("x",), ((1,),))
TWO_VAR = (("x", "y"), ((1, 0), (0, 1)))
SQUARE = (("x", "y"), ((2, 0), (1, 1), (0, 2)))  # the torsion-bearing (x, y)^2


class PDCrystals(Workload):
    """Divided-power envelopes and torsion probes.

    Per prime: five regular presentations (envelope, probe and
    `NablaContext`) and the torsion-bearing (x, y)^2 presentations with m in
    {2, 3}: caps 4 and 7 once, cap 5 six times, cap 6 three times.  The
    counts put the median at the middle of the cap-5 ops and the tail at the
    middle of the cap-6 ops.  Connections are not solved
    (see README.md, "Known limits").  Nothing here is drawn from the seed:
    the presentations are a fixed list, and the op order is one fixed
    interleaving, because peak RSS follows the order (heap fragmentation
    left by the large envelopes).
    """

    name = "pd-crystals"
    unit = "ops"
    cycle_s = 22.0
    # (variables and generators, m, cap, ops per cycle) per prime
    REGULAR = {
        "full": [(ONE_VAR, 2, 5), (ONE_VAR, 3, 6), (ONE_VAR, 3, 8), (TWO_VAR, 2, 4), (TWO_VAR, 3, 5)],
        "tiny": [(ONE_VAR, 2, 5)],
    }
    TORSION = {
        "full": [(SQUARE, m, cap, count) for m in (2, 3) for cap, count in ((4, 1), (5, 6), (6, 3), (7, 1))],
        "tiny": [(SQUARE, 2, 4, 1)],
    }
    PRIMES = {"full": (2, 3), "tiny": (2,)}

    def __init__(self, seed, scale="full", references=None):
        super().__init__(seed, scale)
        self.inputs = []
        for p in self.PRIMES[scale]:
            for (variables, gens), m, cap in self.REGULAR[scale]:
                self.inputs.append(("regular", PDPresentation(p, m, variables, gens, cap)))
            for (variables, gens), m, cap, count in self.TORSION[scale]:
                pres = PDPresentation(p, m, variables, gens, cap)
                self.inputs += [("torsion", pres)] * count
        self.order_rng = random.Random(0)
        self.references = references or self.default_references()

    @staticmethod
    def default_references():
        # free rank of the (x, y)^2 envelope: env.n minus its p-power relations
        return {"square_free_rank": {4: 36, 5: 55, 6: 78, 7: 105}}

    def ops(self, in_process=False):
        for kind, pres in self.inputs:
            label = f"{kind} p={pres.p} m={pres.m} cap={pres.cap} vars={len(pres.variables)}"
            yield label, lambda kind=kind, pres=pres: self._envelope(kind, pres)

    def _envelope(self, kind, pres):
        env = pdenv.build_pd_envelope(pres)
        rep = pdenv.pd_torsion_probe(env)
        problems = []
        if kind == "torsion":
            for t in rep.torsion_generators:
                if t == env.zero:
                    problems.append("zero torsion generator")
                elif not env.relations.contains([env.p * c for c in t]):
                    problems.append("p*t is not in the relation span")
            want = self.references["square_free_rank"][pres.cap]
            if rep.free_rank != want:
                problems.append(f"free rank {rep.free_rank}, expected {want}")
            return 1, problems
        if rep.torsion_generators or rep.free_rank != env.n:
            problems.append(f"regular presentation: torsion {len(rep.torsion_generators)}, free rank {rep.free_rank} of {env.n}")
        nabla.NablaContext(pd_frame(env))
        return 1, problems


# -- scenario-cli -------------------------------------------------------------------


class ScenarioCLI(Workload):
    """`crystaframe run` on the bundled scenarios and seeded lift-frame ones.

    Light scenarios (three windows, or any over Z/4; about 0.3 s, mostly
    interpreter start) hold the median; heavy ones (four or five windows
    over Z/8 or Z/9, about 0.6 s) hold the tail.
    """

    name = "scenario-cli"
    unit = "scenarios"
    cycle_s = 22.0
    BUNDLED = {
        "full": ["classify_rank1_zp2.scn", "pd_desk.scn", "witt_frame_f2.scn"],
        "tiny": ["classify_rank1_zp2.scn"],
    }
    # (d, t) per window
    THREE = ((1, 0), (0, 1), (1, 1))
    FOUR = ((0, 1), (1, 1), (1, 0), (0, 2))
    FIVE = ((1, 1), (1, 0), (0, 1), (2, 0), (0, 1))
    # (p, m, shape, scenarios per cycle)
    GENERATED = {
        "full": [
            (2, 2, THREE, 6), (2, 2, FOUR, 6), (2, 2, FIVE, 6), (2, 3, THREE, 6), (3, 2, THREE, 6),
            (2, 3, FOUR, 5), (2, 3, FIVE, 4), (3, 2, FOUR, 5), (3, 2, FIVE, 4),
        ],
        "tiny": [(2, 2, THREE, 1)],
    }

    def __init__(self, seed, scale="full", references=None):
        super().__init__(seed, scale)
        self.references = references or {"golden": {"classify_rank1_zp2.scn": GOLDEN.read_bytes()}}
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="scenarios-", dir=out))
        self.files = [SCENARIO_DIR / name for name in self.BUNDLED[scale]]
        specs = [(p, m, shape) for p, m, shape, count in self.GENERATED[scale] for _ in range(count)]
        for k, (p, m, shape) in enumerate(specs):
            path = self.tmp / f"generated_{k}.scn"
            path.write_text(self.generate(self.rng, p, m, shape, f"seed {seed}, scenario {k}"))
            self.files.append(path)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(ROOT / "src")

    @staticmethod
    def generate(rng, p, m, shape, tag):
        """A lift-frame scenario over Z/p^m: validate, classify rank 1 and homs
        in both modes between neighbouring windows and between the first two
        windows of rank 2 (or the first two windows when fewer have rank 2)."""
        lines = [
            f"# benchmark input ({tag}): lift frame over Z/{p ** m}",
            "format_version 1",
            f"prime {p}",
            f"precision {m}",
            f"depth {m - 1}",
            "budget max_carrier 65536",
            "budget max_enum 4194304",
            "budget max_cap 16",
            "",
            f"frame L kind lift precision {m}",
            "",
        ]
        for i, (d, t) in enumerate(shape):
            flat = random_psi(rng, d + t, p ** m, p)
            lines.append(f"window w{i} frame L d {d} t {t} psi {','.join(map(str, flat))}")
        lines += ["", "command validate L", "command classify L rank 1"]
        pairs = [(i, i + 1) for i in range(len(shape) - 1)]
        rank2 = [i for i, (d, t) in enumerate(shape) if d + t == 2]
        pairs.append(tuple(rank2[:2]) if len(rank2) >= 2 else (0, 1))
        for i, j in pairs:
            for mode in ("window", "phi_module"):
                lines.append(f"command hom w{i} w{j} mode {mode}")
        return "\n".join(lines) + "\n"

    def ops(self, in_process=False):
        run = self._run_in_process if in_process else self._run_cli
        for path in self.files:
            yield f"run {path.name}", lambda path=path: run(path)

    def _check_report(self, path, report_bytes, problems):
        golden = self.references["golden"].get(path.name)
        if golden is not None and report_bytes != golden:
            problems.append(f"{path.name}: report differs from the golden bytes")

    def _run_cli(self, path):
        report = self.tmp / (path.stem + ".report.json")
        proc = subprocess.run(
            [sys.executable, "-m", "crystaframe.cli", "run", str(path), "--report", str(report)],
            env=self.env, capture_output=True, text=True, timeout=120,
        )
        problems = []
        if proc.returncode != 0:
            problems.append(f"{path.name}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        if "[FAIL" in proc.stdout:
            problems.append(f"{path.name}: a command failed")
        if proc.returncode == 0:
            self._check_report(path, report.read_bytes(), problems)
        return 1, problems

    def _run_in_process(self, path):
        """What `crystaframe run` does, minus the interpreter start."""
        sc = scenario.parse_scenario(path.read_text())
        scenario.apply_env_budget_overrides(sc)
        objects = scenario.validate_scenario(sc)
        report = runner.run_scenario(sc, objects, internal_precision=None, threads=1)
        lines = list(report.human_lines())
        text = report.to_json()
        problems = []
        if report.failed or any(line.startswith("[FAIL") for line in lines):
            problems.append(f"{path.name}: a command failed")
        self._check_report(path, text.encode(), problems)
        return 1, problems

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (LemmaSweep, Classify, PDCrystals, ScenarioCLI)}
