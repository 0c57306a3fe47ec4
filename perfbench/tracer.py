"""Outside-in tracing of padicdiff's layers, with no change to the package.

``Tracer.install`` wraps each layer's public callables where their callers
look them up (a module attribute bound by ``from ... import`` is a separate
reference, so every padicdiff module holding the function is patched), and
the two ``RecursionState`` methods on the class.  Each call records a span
``[name, start, end, parent, job]`` in memory; ``uninstall`` restores the
originals.  Counts are taken at the same boundaries.

``stored_coeffs`` and ``coeff_bits_max`` can only be read from private
``RecursionState`` fields; when those fields are gone the metrics are
reported absent rather than failing.
"""

from __future__ import annotations

import json
import statistics
import sys
import weakref
from collections import Counter
from time import perf_counter

# span name -> per-layer self-time metric
SELF_TIME = {
    "diffmod.extend": "diffmod.extend_s",
    "diffmod.log_norms_first": "diffmod.log_norms_first_s",
    "diffmod.log_norms_rest": "diffmod.log_norms_rest_s",
    "radius.radius_estimate": "radius.radius_estimate_s",
    "radius.polygon_estimate": "radius.polygon_fit_s",
    "radius.frobenius_radius_check": "radius.frobenius_s",
    "diagnostics.bounded_report": "diagnostics.bounded_report_s",
    "diagnostics.theorem_check": "diagnostics.theorem_s",
    "spectral.cyclic_vector": "spectral.cyclic_vector_s",
    "cli.main": "cli.self_s",
}
COUNTS = (
    "diffmod.steps",
    "diffmod.stored_coeffs",
    "diffmod.coeff_bits_max",
    "diffmod.log_norms_calls",
    "diffmod.norm_terms",
    "radius.estimates",
    "diagnostics.reports",
    "spectral.cyclic_attempts",
    "cli.report_bytes",
)
PRIVATE_COUNTS = ("diffmod.stored_coeffs", "diffmod.coeff_bits_max")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job = -1
        self.counts: Counter = Counter()
        self.private_absent = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._seen_states: weakref.WeakSet = weakref.WeakSet()
        self._cyclic_successes = 0

    # -- spans -------------------------------------------------------------

    def _wrap(self, fn, name, before=None, after=None):
        """``before(args, kwargs)`` may return a span name and a context that
        is passed to ``after(ctx, args, result)``."""

        def traced(*args, **kwargs):
            span_name, ctx = name, None
            if before is not None:
                span_name, ctx = before(args, kwargs)
            rec = [span_name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.job]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
            if after is not None:
                after(ctx, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def call(self, name, fn, *args):
        """Run ``fn(*args)`` as a span; the benchmark wraps ``cli.main`` so."""
        return self._wrap(fn, name)(*args)

    # -- patching ------------------------------------------------------------

    def _patch_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "padicdiff" or mod_name.startswith("padicdiff.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        radius = sys.modules["padicdiff.radius"]
        diagnostics = sys.modules["padicdiff.diagnostics"]
        spectral = sys.modules["padicdiff.spectral"]
        state_cls = sys.modules["padicdiff.diffmod"].RecursionState

        for cls_attr, name, before, after in (
            ("extend", "diffmod.extend", self._before_extend, self._after_extend),
            ("log_norms", None, self._before_log_norms, None),
        ):
            original = vars(state_cls)[cls_attr]
            self._patches.append((state_cls, cls_attr, original))
            setattr(state_cls, cls_attr, self._wrap(original, name, before, after))

        for fn, name, after in (
            (radius.radius_estimate, "radius.radius_estimate", self._counter("radius.estimates")),
            (radius.polygon_estimate, "radius.polygon_estimate", None),
            (radius.frobenius_radius_check, "radius.frobenius_radius_check", None),
            (diagnostics.bounded_report, "diagnostics.bounded_report", self._counter("diagnostics.reports")),
            (diagnostics.theorem_check, "diagnostics.theorem_check", None),
            (spectral.cyclic_vector, "spectral.cyclic_vector", self._after_cyclic),
        ):
            self._patch_everywhere(fn, self._wrap(fn, name, after=after))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- counters --------------------------------------------------------------

    def _counter(self, key):
        def after(ctx, args, result) -> None:
            self.counts[key] += 1

        return after

    def _before_extend(self, args, kwargs):
        state = args[0]
        return "diffmod.extend", (state.depth, getattr(state, "_coeff_count", None))

    def _after_extend(self, ctx, args, result) -> None:
        state = args[0]
        depth0, coeffs0 = ctx
        steps = state.depth - depth0
        self.counts["diffmod.steps"] += steps
        try:
            self.counts["diffmod.stored_coeffs"] += state._coeff_count - coeffs0
            if steps:
                # coefficients grow with n, so the newest S_n holds the widest
                bits = max(
                    (abs(v).bit_length() for row in state._S[-1] for c in row for v in c.values()),
                    default=0,
                )
                self.counts["diffmod.coeff_bits_max"] = max(
                    self.counts["diffmod.coeff_bits_max"], bits
                )
        except (AttributeError, TypeError):
            self.private_absent = True

    def _before_log_norms(self, args, kwargs):
        state = args[0]
        depth = args[2] if len(args) > 2 else kwargs.get("depth")
        if depth is None:
            depth = state.depth
        self.counts["diffmod.log_norms_calls"] += 1
        self.counts["diffmod.norm_terms"] += depth + 1
        if state in self._seen_states:
            return "diffmod.log_norms_rest", None
        self._seen_states.add(state)
        return "diffmod.log_norms_first", None

    def _after_cyclic(self, ctx, args, result) -> None:
        self.counts["spectral.cyclic_attempts"] += result.attempts
        self._cyclic_successes += 1

    # -- per-pass metrics --------------------------------------------------------

    def start_pass(self) -> int:
        self.counts = Counter()
        self._cyclic_successes = 0
        return len(self.spans)

    def pass_metrics(self, first_span: int) -> dict[str, float]:
        """Self time per layer and counts for the spans recorded since
        ``first_span``; also ``covered``, the summed duration of top-level
        spans."""
        spans = self.spans[first_span:]
        child_time = [0.0] * len(spans)
        covered = 0.0
        for rec in spans:
            dur = rec[2] - rec[1]
            if rec[3] is None:
                covered += dur
            else:
                child_time[rec[3] - first_span] += dur
        out = {metric: 0.0 for metric in SELF_TIME.values()}
        for rec, children in zip(spans, child_time):
            out[SELF_TIME[rec[0]]] += rec[2] - rec[1] - children
        for key in COUNTS:
            out[key] = self.counts[key]
        if self._cyclic_successes:
            out["spectral.cyclic_attempts"] /= self._cyclic_successes
        if self.private_absent:
            for key in PRIVATE_COUNTS:
                del out[key]
        out["covered"] = covered
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(
                    json.dumps({"name": name, "start": start, "end": end, "parent": parent, "job": job})
                    + "\n"
                )


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    keys = set.intersection(*(set(m) for m in per_pass))
    return {k: statistics.median(m[k] for m in per_pass) for k in sorted(keys)}
