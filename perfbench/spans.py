"""Spans and counts around the public functions of each padelab module.

The tracer patches functions and methods at run time and restores them on
``uninstall``; nothing under ``src/`` is edited.  A span has a name, a
start, an end, the index of its parent span and the id of the operation
that caused it.  Hot leaves (point evaluation, ``chordal``,
``boundary_integrand``, ...) only aggregate a call count and self time,
so a traced run does not keep hundreds of thousands of spans.

Self time is a span's duration minus the time of the traced calls it made.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

import padelab

MODULES = ("series", "pade", "sphere", "samples", "construct", "domains", "blowup", "cli")

# (module, owner or None for a module-level function, attribute, span name, hot leaf)
TARGETS = [
    ("series", "Polynomial", "__call__", "series.Polynomial.__call__", True),
    ("series", "PowerSeries", "__call__", "series.PowerSeries.__call__", True),
    ("series", "RationalFunction", "__call__", "series.RationalFunction.__call__", True),
    ("series", None, "rational_normalize", "series.rational_normalize", True),
    ("series", None, "taylor_of_rational", "series.taylor_of_rational", False),
    ("pade", None, "pade_construct", "pade.pade_construct", False),
    ("pade", None, "normality", "pade.normality", False),
    ("pade", None, "hankel_determinant", "pade.hankel_determinant", False),
    ("pade", None, "common_zero_margin", "pade.common_zero_margin", False),
    ("pade", None, "evaluate_extended", "pade.evaluate_extended", True),
    ("sphere", None, "chordal", "sphere.chordal", True),
    ("sphere", None, "sup_chordal", "sphere.sup_chordal", False),
    ("sphere", None, "rationalize_coefficients", "sphere.rationalize_coefficients", False),
    ("samples", None, "circle_sample", "samples.circle_sample", False),
    ("samples", None, "disc_grid_sample", "samples.disc_grid_sample", False),
    ("samples", None, "segment_sample", "samples.segment_sample", False),
    ("samples", "CompactSample", "refined", "samples.CompactSample.refined", False),
    ("construct", None, "universality_pipeline", "construct.universality_pipeline", False),
    ("construct", None, "two_set_poly_fit", "construct.two_set_poly_fit", False),
    ("construct", None, "universality_certificate", "construct.universality_certificate", False),
    ("construct", None, "principal_parts", "construct.principal_parts", False),
    ("construct", None, "denominator_poles", "construct.denominator_poles", False),
    ("construct", None, "residue_correction", "construct.residue_correction", False),
    ("construct", None, "volterra_apply", "construct.volterra_apply", False),
    ("domains", None, "path_integral", "domains.path_integral", False),
    ("domains", None, "moment_test", "domains.moment_test", False),
    ("domains", None, "antiderivative_at", "domains.antiderivative_at", False),
    ("domains", None, "bounded_path", "domains.bounded_path", False),
    ("domains", "DiscDomain", "bounded_path", "domains.bounded_path", False),
    ("domains", "StarlikeDomain", "bounded_path", "domains.bounded_path", False),
    ("domains", "CorridorDomain", "bounded_path", "domains.bounded_path", False),
    ("blowup", None, "divergence_experiment", "blowup.divergence_experiment", False),
    ("blowup", None, "boundary_integrand", "blowup.boundary_integrand", True),
    ("cli", None, "main", "cli.main", False),
    ("cli", None, "build_parser", "cli.build_parser", False),
    ("cli", "_Parser", "parse_args", "cli.parse_args", False),
    ("cli", None, "emit_report", "cli.emit_report", False),
    ("cli", None, "_write_text", "cli._write_text", False),
]

# Counts that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = ("pade.lu_count", "series.eval.calls", "construct.certificate.calls",
                "domains.integrand_evals", "blowup.integrand_evals")


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # frames: [child seconds, index of the nearest kept span]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.op_id = None
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------------------

    def _wrap(self, name: str, fn, hot: bool, before=None, after=None):
        stack, calls, self_s, spans = self.stack, self.calls, self.self_s, self.spans

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            parent = stack[-1][1] if stack else -1
            if hot:
                frame = [0.0, parent]
            else:
                frame = [0.0, len(spans)]
                spans.append([name, 0.0, 0.0, parent, self.op_id])
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(name, frame, start, hot)
                if after is not None:
                    after(args, kwargs, None, exc)
                raise
            self._close(name, frame, start, hot)
            if after is not None:
                after(args, kwargs, result, None)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _close(self, name, frame, start, hot):
        end = perf_counter()
        self.stack.pop()
        duration = end - start
        if self.stack:
            self.stack[-1][0] += duration
        self.calls[name] += 1
        self.self_s[name] += duration - frame[0]
        if not hot:
            span = self.spans[frame[1]]
            span[1], span[2] = start, end

    def run_op(self, op_id, fn):
        """Call fn() as the root span of one operation."""
        self.op_id = op_id
        return self._wrap("op", fn, False)()

    # -- counts at the same boundaries ----------------------------------------------

    def _hooks(self, name):
        counts = self.counts

        def count_integrand(args, kwargs):
            f = _arg(args, kwargs, 0, "f")

            def counted(z):
                counts["domains.integrand_evals"] += 1
                return f(z)
            if "f" in kwargs:
                return args, {**kwargs, "f": counted}
            return (counted,) + tuple(args[1:]), kwargs

        def after_construct(args, kwargs, result, exc):
            q = _arg(args, kwargs, 2, "q")
            if q:
                counts["pade.lu_count"] += q + 1  # cofactors; its normality() adds the last one
            counts["pade.normal"] += bool(result is not None and result.normal)

        def after_normality(args, kwargs, result, exc):
            counts["pade.lu_count"] += 1

        def after_fit(args, kwargs, result, exc):
            if result is not None:
                counts["construct.fit.degrees_tried"] += result[1].degree + 1
            else:
                counts["construct.fit.degrees_tried"] += _arg(args, kwargs, 4, "max_degree") + 1

        def after_certificate(args, kwargs, result, exc):
            counts["construct.cert_accepted"] += bool(
                result is not None and result.e_set_member and result.t_set_member)

        hooks = {
            "domains.path_integral": (count_integrand, None),
            "pade.pade_construct": (None, after_construct),
            "pade.normality": (None, after_normality),
            "construct.two_set_poly_fit": (None, after_fit),
            "construct.universality_certificate": (None, after_certificate),
        }
        return hooks.get(name, (None, None))

    # -- patching ------------------------------------------------------------------

    def install(self):
        modules = [importlib.import_module(f"padelab.{m}") for m in MODULES] + [padelab]
        for module_name, owner_name, attr, name, hot in TARGETS:
            before, after = self._hooks(name)
            module = importlib.import_module(f"padelab.{module_name}")
            if owner_name is not None:
                owner = getattr(module, owner_name)
                original = getattr(owner, attr)
                had_own = attr in owner.__dict__
                setattr(owner, attr, self._wrap(name, original, hot, before, after))
                self._undo.append((owner, attr, original if had_own else None))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, hot, before, after)
            # names imported with "from .x import f" live in several namespaces
            for namespace in modules:
                if namespace.__dict__.get(attr) is original:
                    setattr(namespace, attr, wrapper)
                    self._undo.append((namespace, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    # -- per-layer metrics ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        c, s, k = self.calls, self.self_s, self.counts

        def calls(*names):
            return sum(c[n] for n in names)

        def self_time(*names):
            return sum(s[n] for n in names)

        def ratio(num, den):
            return num / den if den else 0.0

        evals = ("series.Polynomial.__call__", "series.PowerSeries.__call__")
        samples = ("samples.circle_sample", "samples.disc_grid_sample", "samples.segment_sample",
                   "samples.CompactSample.refined")
        return {
            "series.eval.calls": (calls(*evals), "count"),
            "series.eval.self_s": (self_time(*evals), "s"),
            "series.rational_eval.calls": (calls("series.RationalFunction.__call__"), "count"),
            "series.normalize.calls": (calls("series.rational_normalize"), "count"),
            "series.normalize.self_s": (self_time("series.rational_normalize"), "s"),
            "series.taylor.self_s": (self_time("series.taylor_of_rational"), "s"),
            "pade.construct.calls": (calls("pade.pade_construct"), "count"),
            "pade.construct.self_s": (self_time("pade.pade_construct"), "s"),
            "pade.hankel.self_s": (self_time("pade.hankel_determinant", "pade.normality"), "s"),
            "pade.lu_count": (k["pade.lu_count"], "count"),
            "pade.normal_ratio": (ratio(k["pade.normal"], c["pade.pade_construct"]), "ratio"),
            "pade.common_zero.self_s": (self_time("pade.common_zero_margin"), "s"),
            "pade.eval_extended.calls": (calls("pade.evaluate_extended"), "count"),
            "sphere.chordal.calls": (calls("sphere.chordal"), "count"),
            "sphere.chordal.self_s": (self_time("sphere.chordal"), "s"),
            "sphere.sup_chordal.self_s": (self_time("sphere.sup_chordal"), "s"),
            "sphere.rationalize.self_s": (self_time("sphere.rationalize_coefficients"), "s"),
            "samples.build.self_s": (self_time(*samples), "s"),
            "construct.fit.self_s": (self_time("construct.two_set_poly_fit"), "s"),
            "construct.fit.degrees_tried": (k["construct.fit.degrees_tried"], "count"),
            "construct.certificate.calls": (calls("construct.universality_certificate"), "count"),
            "construct.certificate.self_s": (self_time("construct.universality_certificate"), "s"),
            "construct.cert_accept_ratio": (
                ratio(k["construct.cert_accepted"], c["construct.universality_certificate"]), "ratio"),
            "construct.poles.self_s": (self_time("construct.denominator_poles"), "s"),
            "construct.residue_correction.self_s": (self_time("construct.residue_correction"), "s"),
            "domains.path_integral.calls": (calls("domains.path_integral"), "count"),
            "domains.path_integral.self_s": (self_time("domains.path_integral"), "s"),
            "domains.integrand_evals": (k["domains.integrand_evals"], "count"),
            "domains.evals_per_integral": (
                ratio(k["domains.integrand_evals"], c["domains.path_integral"]), "count"),
            "domains.bounded_path.self_s": (self_time("domains.bounded_path"), "s"),
            "blowup.divergence.self_s": (self_time("blowup.divergence_experiment"), "s"),
            "blowup.integrand_evals": (calls("blowup.boundary_integrand"), "count"),
            "cli.parse.self_s": (self_time("cli.build_parser", "cli.parse_args"), "s"),
            "cli.emit.self_s": (self_time("cli.emit_report", "cli._write_text"), "s"),
            "bench.op.self_s": (self_time("op"), "s"),
        }

