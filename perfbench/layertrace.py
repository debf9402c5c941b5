"""Run-time tracing of crystaframe's layers, from outside the package.

Only the traced run installs a `Tracer`.  It rebinds each wrapped public
function wherever a crystaframe module bound it (``homsweep.batch_kernel``,
``windows.hom_space``, ``runner.classify_windows``, ...), so calls made by
the package itself are seen too.  Layer functions get spans; per-element
methods get call counters only, because a span per element operation would
cost more than it measures.  `uninstall` restores every original binding.

A span is ``(name, start, end, parent, op)``: `parent` is the index of the
enclosing span (-1 at top level) and `op` the id of the benchmark op that
caused it ("setup" before the first op).  Spans stay in memory until the
run writes them out.  A function re-entered while its own span is open gets
no second span, so busy times never count a call twice.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# Wrapped names: (module, attribute, span name).  Each is rebound in every
# crystaframe module that holds the same function object.
SPANNED_FUNCTIONS = [
    ("crystaframe.linalg", "batch_kernel", "linalg.batch_kernel"),
    ("crystaframe.linalg", "diagonalize", "linalg.diagonalize"),
    ("crystaframe.linalg", "kernel_basis", "linalg.kernel_basis"),
    ("crystaframe.linalg", "solve", "linalg.solve"),
    ("crystaframe.homsweep", "sweep_win_phi_mod", "homsweep.sweep_win_phi_mod"),
    ("crystaframe.windows", "classify_windows", "windows.classify_windows"),
    ("crystaframe.windows", "are_isomorphic", "windows.are_isomorphic"),
    ("crystaframe.windows", "hom_space", "windows.hom_space"),
    ("crystaframe.witt", "witt_cache", "witt.witt_cache"),
    ("crystaframe.frames", "witt_frame", "frames.witt_frame"),
    ("crystaframe.frames", "lift_frame", "frames.lift_frame"),
    ("crystaframe.pdenv", "build_pd_envelope", "pdenv.build_pd_envelope"),
    ("crystaframe.pdenv", "pd_torsion_probe", "pdenv.pd_torsion_probe"),
    ("crystaframe.scenario", "parse_scenario", "scenario.parse_scenario"),
    ("crystaframe.scenario", "validate_scenario", "scenario.validate_scenario"),
    ("crystaframe.runner", "run_scenario", "runner.run_scenario"),
]

# Methods that get a span: (module, class, method, span name).
SPANNED_METHODS = [
    ("crystaframe.nabla", "NablaContext", "__init__", "nabla.NablaContext"),
    ("crystaframe.report", "Report", "to_json", "report.Report.to_json"),
]

# Per-element operations that only count calls.
COUNTED_METHODS = [
    ("crystaframe.pdenv", "PDAlgebra", "mul", "pdenv.PDAlgebra.mul.calls"),
    ("crystaframe.pdenv", "PDAlgebra", "reduce", "pdenv.PDAlgebra.reduce.calls"),
    ("crystaframe.linalg", "SpanNF", "reduce", "linalg.SpanNF.reduce.calls"),
    ("crystaframe.linalg", "SpanNF", "insert", "linalg.SpanNF.insert.calls"),
    ("crystaframe.witt", "WittRing", "mul", "witt.WittRing.mul.calls"),
    ("crystaframe.witt", "WittRing", "add", "witt.WittRing.add.calls"),
]
COUNTED_FUNCTIONS = [
    ("crystaframe.matrices", "mat_mul", "matrices.mat_mul.calls"),
]
# Batched kernel shapes (r x c systems mod q) that the benchmark's workloads
# reach; each gets a systems_per_s metric, 0 when a workload never calls it.
BATCH_SHAPES = [f"{n}x{n}.mod{q}" for q in (8, 27) for n in (1, 2, 3, 4, 5, 6, 8)]
# Hom checks count calls and the share that return True.
CHECK_FUNCTIONS = [
    ("crystaframe.windows", "is_window_hom"),
    ("crystaframe.windows", "is_phi_hom"),
]


class Tracer:
    """Spans, counters and the rebinding that feeds them."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)  # busy time by shape/kind/mode
        self.op = "setup"
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        self._restore: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _span(self, name, fn, note=None):
        """Wrap `fn` in a span; `note(args, kwargs, result, seconds)` adds counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._open[name]:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(idx)
            tracer._open[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._open[name] -= 1
                tracer._stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.op)
            if note is not None:
                note(args, kwargs, result, end - start)
            return result

        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _check_counter(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ok = fn(*args, **kwargs)
            counts["windows.hom_scan.candidates"] += 1
            if ok:
                counts["windows.hom_scan.useful"] += 1
            return ok

        return wrapper

    # -- notes: counts taken from arguments and results -----------------------

    def _note_batch_kernel(self, args, kwargs, result, seconds):
        mats, p, m = args[0], args[1], args[2]
        n, r, c = mats.shape
        self.counts["linalg.batch_kernel.calls"] += 1
        self.counts["linalg.batch_kernel.systems"] += n
        self.counts[f"linalg.batch_kernel.systems.{r}x{c}.mod{p ** m}"] += n
        self.seconds[f"linalg.batch_kernel.{r}x{c}.mod{p ** m}"] += seconds

    def _note_diagonalize(self, args, kwargs, result, seconds):
        mat = args[0]
        self.counts["linalg.diagonalize.calls"] += 1
        self.counts["linalg.diagonalize.entries"] += len(mat) * (len(mat[0]) if mat else 0)

    def _note_sweep(self, args, kwargs, result, seconds):
        self.counts["homsweep.pairs"] += result.pairs_checked
        self.counts["homsweep.pairs_trivial"] += result.pairs_trivial

    def _note_classify(self, args, kwargs, result, seconds):
        frame = args[0]
        rank = args[1] if len(args) > 1 else kwargs["rank"]
        kind = "lift" if frame.kind == "lift" else "witt"
        self.counts["windows.classify_windows.classes"] += len(result.classes)
        if kind == "lift":
            mod = frame.A.modulus
            self.counts["windows.classify_windows.candidates.lift"] += (rank + 1) * mod ** (rank * rank)
        self.seconds[f"windows.classify_windows.{kind}"] += seconds

    def _note_iso(self, args, kwargs, result, seconds):
        self.counts["windows.are_isomorphic.calls"] += 1
        if result:
            self.counts["windows.are_isomorphic.true"] += 1

    def _note_hom_space(self, args, kwargs, result, seconds):
        mode = args[2] if len(args) > 2 else kwargs.get("mode", "window")
        self.counts[f"windows.hom_space.calls.{mode}"] += 1
        self.seconds[f"windows.hom_space.{mode}"] += seconds

    def _note_envelope(self, args, kwargs, result, seconds):
        self.counts["pdenv.basis_dim"] += result.n

    def _note_probe(self, args, kwargs, result, seconds):
        self.counts["pdenv.torsion_generators"] += len(result.torsion_generators)

    def _note_run_scenario(self, args, kwargs, result, seconds):
        self.counts["runner.commands"] += len(args[0].commands)

    # -- installation ----------------------------------------------------------

    def _rebind_everywhere(self, original, wrapper):
        for modname, module in list(sys.modules.items()):
            if not modname.startswith("crystaframe") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))

    def install(self):
        notes = {
            "linalg.batch_kernel": self._note_batch_kernel,
            "linalg.diagonalize": self._note_diagonalize,
            "homsweep.sweep_win_phi_mod": self._note_sweep,
            "windows.classify_windows": self._note_classify,
            "windows.are_isomorphic": self._note_iso,
            "windows.hom_space": self._note_hom_space,
            "pdenv.build_pd_envelope": self._note_envelope,
            "pdenv.pd_torsion_probe": self._note_probe,
            "runner.run_scenario": self._note_run_scenario,
        }
        import crystaframe.cli  # noqa: F401  (so its bindings are rebound too)
        import crystaframe.homsweep  # noqa: F401

        for modname, attr, name in SPANNED_FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            self._rebind_everywhere(original, self._span(name, original, notes.get(name)))
        for modname, attr, key in COUNTED_FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            self._rebind_everywhere(original, self._counter(key, original))
        for modname, attr in CHECK_FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            self._rebind_everywhere(original, self._check_counter(original))
        for modname, cls_name, meth, name in SPANNED_METHODS:
            cls = getattr(sys.modules[modname], cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, self._span(name, original))
            self._restore.append((cls, meth, original))
        for modname, cls_name, meth, key in COUNTED_METHODS:
            cls = getattr(sys.modules[modname], cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, self._counter(key, original))
            self._restore.append((cls, meth, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- derived numbers -------------------------------------------------------

    def busy(self):
        """Total and self seconds per span name.

        Self time is a span's duration minus the part its direct children
        cover; spans never overlap within one thread, so that part is the
        sum of the children's durations.
        """
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += (end - start) - child.get(idx, 0.0)
        return total, own

    def span_records(self):
        """Spans as JSON-ready lists, times relative to the first span."""
        if not self.spans:
            return []
        t0 = self.spans[0][1]
        return [
            [name, round(start - t0, 9), round(end - t0, 9), parent, op]
            for name, start, end, parent, op in self.spans
        ]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, extra: dict) -> dict:
    """Per-layer numbers of one traced run, keyed as in BENCHMARK.json.

    Busy times include child spans; `.self_s` excludes them.  A layer the
    workload never reaches reads 0.  A batch-kernel shape outside
    `BATCH_SHAPES` still gets its own key, so a new shape shows up as a key
    that BENCHMARK.json does not list.  `extra` carries the numbers measured
    around the traced run itself (overhead, interpreter start).
    """
    total, own = tracer.busy()
    c, s = tracer.counts, tracer.seconds
    out = {
        "linalg.batch_kernel.calls": c["linalg.batch_kernel.calls"],
        "linalg.batch_kernel.systems": c["linalg.batch_kernel.systems"],
        "linalg.batch_kernel.busy_s": total["linalg.batch_kernel"],
        "linalg.diagonalize.calls": c["linalg.diagonalize.calls"],
        "linalg.diagonalize.busy_s": total["linalg.diagonalize"],
        "linalg.diagonalize.entries": c["linalg.diagonalize.entries"],
        "linalg.kernel_basis.busy_s": total["linalg.kernel_basis"],
        "linalg.solve.busy_s": total["linalg.solve"],
        "linalg.SpanNF.insert.calls": c["linalg.SpanNF.insert.calls"],
        "linalg.SpanNF.reduce.calls": c["linalg.SpanNF.reduce.calls"],
        "homsweep.sweep_win_phi_mod.busy_s": total["homsweep.sweep_win_phi_mod"],
        "homsweep.sweep_win_phi_mod.self_s": own["homsweep.sweep_win_phi_mod"],
        "homsweep.pairs": c["homsweep.pairs"],
        "homsweep.pairs_trivial": c["homsweep.pairs_trivial"],
        "windows.classify_windows.busy_s.lift": s["windows.classify_windows.lift"],
        "windows.classify_windows.candidates_per_s.lift": _ratio(
            c["windows.classify_windows.candidates.lift"], s["windows.classify_windows.lift"]
        ),
        "windows.classify_windows.classes": c["windows.classify_windows.classes"],
        "windows.classify_windows.busy_s.witt": s["windows.classify_windows.witt"],
        "windows.are_isomorphic.calls": c["windows.are_isomorphic.calls"],
        "windows.are_isomorphic.busy_s": total["windows.are_isomorphic"],
        "windows.are_isomorphic.true_ratio": _ratio(
            c["windows.are_isomorphic.true"], c["windows.are_isomorphic.calls"]
        ),
        "windows.hom_scan.candidates": c["windows.hom_scan.candidates"],
        "windows.hom_scan.useful_ratio": _ratio(
            c["windows.hom_scan.useful"], c["windows.hom_scan.candidates"]
        ),
        "witt.witt_cache.busy_s": total["witt.witt_cache"],
        "frames.witt_frame.busy_s": total["frames.witt_frame"],
        "frames.lift_frame.busy_s": total["frames.lift_frame"],
        "witt.WittRing.mul.calls": c["witt.WittRing.mul.calls"],
        "witt.WittRing.add.calls": c["witt.WittRing.add.calls"],
        "pdenv.build_pd_envelope.busy_s": total["pdenv.build_pd_envelope"],
        "pdenv.basis_dim": c["pdenv.basis_dim"],
        "pdenv.pd_torsion_probe.busy_s": total["pdenv.pd_torsion_probe"],
        "pdenv.torsion_generators": c["pdenv.torsion_generators"],
        "pdenv.PDAlgebra.mul.calls": c["pdenv.PDAlgebra.mul.calls"],
        "pdenv.PDAlgebra.reduce.calls": c["pdenv.PDAlgebra.reduce.calls"],
        "nabla.NablaContext.busy_s": total["nabla.NablaContext"],
        "matrices.mat_mul.calls": c["matrices.mat_mul.calls"],
        "scenario.parse_scenario.busy_s": total["scenario.parse_scenario"],
        "scenario.validate_scenario.busy_s": total["scenario.validate_scenario"],
        "runner.run_scenario.busy_s": total["runner.run_scenario"],
        "runner.commands": c["runner.commands"],
        "report.Report.to_json.busy_s": total["report.Report.to_json"],
        "cli.process_start_s": 0.0,
        "trace.spans": len(tracer.spans),
    }
    for mode in ("window", "phi_module"):
        out[f"windows.hom_space.calls.{mode}"] = c[f"windows.hom_space.calls.{mode}"]
        out[f"windows.hom_space.busy_s.{mode}"] = s[f"windows.hom_space.{mode}"]
    prefix = "linalg.batch_kernel.systems."
    shapes = set(BATCH_SHAPES) | {key[len(prefix):] for key in list(c) if key.startswith(prefix)}
    for shape in shapes:
        out[f"linalg.batch_kernel.systems_per_s.{shape}"] = _ratio(
            c[prefix + shape], s[f"linalg.batch_kernel.{shape}"]
        )
    out.update(extra)
    return out
