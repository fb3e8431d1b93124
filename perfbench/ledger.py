"""Per-layer ledger for the traced benchmark run.

The engine carries no tracing of its own, so the ledger wraps the public
functions of each layer from outside: every module attribute of the
`shadecalc` package that is bound to a wrapped function is replaced by a
wrapper for the duration of the traced phase and restored afterwards.
No engine source is edited.

Each wrapper records one span (name, start, end, parent span, job id)
in memory; the spans are written out when the run ends.  A few wrappers
also count outcomes at the same boundary (resultant degrees, accepted
centers, uncertified root sets, chord pairings).
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# (span name, module, attribute, modules whose binding is replaced or
# None for every shadecalc module that imports it)
SPANS = [
    ("reportio.parse", "reportio", "parse_curve_file", None),
    ("reportio.emit", "reportio", "emit_report", None),
    ("curves.validate", "curves", "CurveModel.validate", None),
    ("invariants.smoothness", "invariants", "self_double_points", None),
    ("invariants.real_points", "invariants", "find_real_points", None),
    ("invariants.range_shade", "invariants", "range_family_shade", None),
    ("invariants.range_singular", "invariants", "range_family_is_singular", None),
    ("diagram.select_center", "diagram", "select_center", None),
    ("diagram.project", "diagram", "project_curve", None),
    ("diagram.sign", "diagram", "real_crossing_writhe", None),
    ("diagram.sign", "diagram", "sphere_real_pair_sign", None),
    ("diagram.sign", "diagram", "solitary_writhe", None),
    ("diagram.sign", "diagram", "branch_frame_sign", None),
    ("diagram.render", "diagram", "render_diagram_svg", None),
    ("chords.system_build", "chords", "collinearity_system", None),
    ("chords.system_build", "chords", "coincidence_system", None),
    # saturation: the gcd and exact division as the chord solver calls them
    ("chords.saturate", "poly", "bivar_gcd", ("chords",)),
    ("chords.saturate", "poly", "bivar_divexact", ("chords",)),
    ("chords.solve", "chords", "solve_minor_system", None),
    ("poly.resultant", "poly", "bivar_resultant_w", None),
    ("poly.content", "poly", "glist_gcd", None),
    ("poly.sqf", "poly", "zx_sqf_list", None),
    ("poly.sturm", "poly", "real_roots_sturm", None),
    ("roots.complex_roots", "roots", "complex_roots", None),
]

# counted, not timed: its time stays in the chords.solve self time
COUNTED = [("chords", "_pair_and_polish")]

# every module that binds a wrapped function
MODULES = ["poly", "curves", "roots", "chords", "diagram", "invariants", "reportio", "cli"]


def _coeff_bits(form) -> int:
    bits = 0
    for c in form.coeffs:
        for q in (c.re, c.im):
            bits = max(bits, abs(q.numerator).bit_length(), q.denominator.bit_length())
    return bits


class Ledger:
    """Span recorder plus outcome counters; install() patches the engine,
    uninstall() restores every replaced attribute."""

    def __init__(self):
        # span: [name, start, end, parent index, job id, outermost of its name]
        self.spans = []
        self.counts = defaultdict(int)
        self.max_degree = 0
        self.max_coeff_bits = 0
        self.job = None
        self._stack = []
        self._depth = defaultdict(int)
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _timed(self, name, fn, on_result=None, on_error=None):
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, depth[name] == 0]
            spans.append(rec)
            stack.append(len(spans) - 1)
            depth[name] += 1
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as e:
                if on_error is not None:
                    on_error(e)
                raise
            finally:
                rec[2] = clock()
                depth[name] -= 1
                stack.pop()
            if on_result is not None:
                on_result(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_resultant(self, args, form):
        self.max_degree = max(self.max_degree, form.degree)
        self.max_coeff_bits = max(self.max_coeff_bits, _coeff_bits(form))
        if self._depth["chords.solve"]:
            self.counts["resultants_in_solve"] += 1

    def _on_roots(self, args, roots):
        self.counts["roots.degree_sum"] += args[0].degree

    def _on_roots_error(self, e):
        if type(e).__name__ == "UncertifiedRootsError":
            self.counts["roots.uncertified"] += 1

    def _on_project(self, args, data):
        self.counts["diagram.center_accepted"] += 1

    def _on_emit(self, args, data):
        self.counts["reportio.report_bytes"] += len(data)

    def _counted_pairing(self, fn):
        def wrapper(minors, u, v, zroots, wroots, target_radius):
            out = fn(minors, u, v, zroots, wroots, target_radius)
            self.counts["pair_candidates"] += len(zroots) * len(wroots)
            self.counts["pair_solutions"] += len(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self):
        mods = {m: importlib.import_module(f"shadecalc.{m}") for m in MODULES}
        hooks = {
            "poly.resultant": (self._on_resultant, None),
            "roots.complex_roots": (self._on_roots, self._on_roots_error),
            "diagram.project": (self._on_project, None),
            "reportio.emit": (self._on_emit, None),
        }
        for name, owner, attr, where in SPANS:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mods[owner], cls_name)
                self._patch(cls, meth, self._timed(name, getattr(cls, meth)))
                continue
            fn = getattr(mods[owner], attr)
            wrapper = self._timed(name, fn, *hooks.get(name, (None, None)))
            for m in where or MODULES:
                if getattr(mods[m], attr, None) is fn:
                    self._patch(mods[m], attr, wrapper)
        for owner, attr in COUNTED:
            fn = getattr(mods[owner], attr)
            self._patch(mods[owner], attr, self._counted_pairing(fn))

    def _patch(self, obj, attr, new):
        self._patched.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def uninstall(self):
        while self._patched:
            obj, attr, old = self._patched.pop()
            setattr(obj, attr, old)

    # -- reduction ---------------------------------------------------------

    def layer_totals(self):
        """Per span name: inclusive seconds of the outermost spans, self
        seconds (span minus its child spans) and outermost call count."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _job, _outer in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        tot = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for i, (name, t0, t1, _parent, _job, outer) in enumerate(self.spans):
            row = tot[name]
            row["self_s"] += (t1 - t0) - child[i]
            if outer:
                row["s"] += t1 - t0
                row["calls"] += 1
        return tot

    def per_layer_metrics(self, jobs: int, scale: float = 1.0):
        """The per-layer metrics of the benchmark, per traced job; span
        seconds are multiplied by `scale` (reference seconds per wall
        second, see speed.py)."""
        tot = self.layer_totals()
        c = self.counts
        per = 1.0 / max(jobs, 1)

        def s(name, key="s"):
            return tot[name][key] * per * scale if name in tot else 0.0

        def calls(name):
            return tot[name]["calls"] * per if name in tot else 0

        def ratio(a, b):
            return a / b if b else 0.0

        attempts = tot["diagram.project"]["calls"] if "diagram.project" in tot else 0
        solves = tot["chords.solve"]["calls"] if "chords.solve" in tot else 0
        return {
            "invariants.smoothness.s": (s("invariants.smoothness"), "s"),
            "invariants.smoothness.calls": (calls("invariants.smoothness"), "count"),
            "invariants.real_points.s": (s("invariants.real_points"), "s"),
            "invariants.range_shade.self_s": (s("invariants.range_shade", "self_s"), "s"),
            "invariants.range_singular.s": (s("invariants.range_singular"), "s"),
            "diagram.select_center.s": (s("diagram.select_center"), "s"),
            "diagram.center_attempts": (attempts * per, "count"),
            "diagram.center_accept_ratio": (ratio(c["diagram.center_accepted"], attempts), "ratio"),
            "diagram.project.self_s": (s("diagram.project", "self_s"), "s"),
            "diagram.sign.s": (s("diagram.sign"), "s"),
            "diagram.sign.calls": (calls("diagram.sign"), "count"),
            "diagram.render.s": (s("diagram.render"), "s"),
            "chords.system_build.s": (s("chords.system_build"), "s"),
            "chords.saturate.s": (s("chords.saturate"), "s"),
            "chords.solve.calls": (calls("chords.solve"), "count"),
            "chords.solve.self_s": (s("chords.solve", "self_s"), "s"),
            "chords.resultants_per_solve": (ratio(c["resultants_in_solve"], solves), "ratio"),
            "chords.pair_accept_ratio": (ratio(c["pair_solutions"], c["pair_candidates"]), "ratio"),
            "poly.resultant.s": (s("poly.resultant"), "s"),
            "poly.resultant.calls": (calls("poly.resultant"), "count"),
            "poly.resultant.max_degree": (self.max_degree, "count"),
            "poly.resultant.max_coeff_bits": (self.max_coeff_bits, "bits"),
            "poly.content.s": (s("poly.content"), "s"),
            "poly.content.calls": (calls("poly.content"), "count"),
            "poly.sqf.s": (s("poly.sqf"), "s"),
            "poly.sqf.self_s": (s("poly.sqf", "self_s"), "s"),
            "poly.sturm.s": (s("poly.sturm"), "s"),
            "poly.sturm.calls": (calls("poly.sturm"), "count"),
            "roots.complex_roots.s": (s("roots.complex_roots"), "s"),
            "roots.complex_roots.self_s": (s("roots.complex_roots", "self_s"), "s"),
            "roots.complex_roots.calls": (calls("roots.complex_roots"), "count"),
            "roots.degree_sum": (c["roots.degree_sum"] * per, "count"),
            "roots.uncertified": (c["roots.uncertified"] * per, "count"),
            "reportio.parse.s": (s("reportio.parse"), "s"),
            "reportio.emit.s": (s("reportio.emit"), "s"),
            "reportio.report_bytes": (c["reportio.report_bytes"] * per, "bytes"),
            "curves.validate.s": (s("curves.validate"), "s"),
        }

    def write_spans(self, path):
        """One JSON array per line: name, start, end, parent index, job id."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, job, _outer in self.spans:
                fh.write(json.dumps([name, round(t0, 9), round(t1, 9), parent, job]))
                fh.write("\n")
