"""Span recording around the gaussgap layers, from outside the package.

Wrappers replace module attributes where callers look them up, so no file
of the package changes.  Spans are kept in memory as
``[name, start, end, parent_index, annotation]``; a layer's self time is its
span minus the spans of its direct children.
"""

from __future__ import annotations

from time import perf_counter

from gaussgap import bounds, cli, moments, oracles, special, verify
from gaussgap.errors import GaussGapError, InfiniteVarianceError

Z_BANDS = (("lo", 0.5), ("mid", 0.9), ("hi", 0.999), ("edge", 1.0))


def _z_band(z: float) -> str:
    return next(name for name, upper in Z_BANDS if z < upper)


def _series(kind):
    def annotate(args, result, exc):
        a, b, c, z = args
        terms = result.terms_used if exc is None else getattr(exc, "terms_used", 0)
        return (kind, a, b, c, z), _z_band(z), terms or 0, exc is not None
    return annotate


def _check_point(args, result, exc):
    return exc is not None or result.regime == "error"


def _quad(args, result, exc):
    return isinstance(exc, GaussGapError)


def _mc(args, result, exc):
    return (0 if exc is not None else args[1].n_samples,
            isinstance(exc, InfiniteVarianceError))


# (module, attribute, span name, annotation).  `cli` binds run_sweep at
# import, so the sweep is wrapped where cli looks it up.
TARGETS = (
    (special, "hyp2f1", "special", _series("F")),
    (special, "hyp2f1_minus_one", "special", _series("F-1")),
    (moments, "gap", "moments.gap", None),
    (moments, "product_moment", "moments.product_moment", None),
    (bounds, "check_point", "bounds.check_point", _check_point),
    (verify, "evaluate_point", "verify.evaluate_point", None),
    (cli, "run_sweep", "verify.run_sweep", None),
    (oracles, "quad_product_moment", "oracles.quad", _quad),
    (oracles, "mc_product_moment", "oracles.mc", _mc),
    (cli, "cmd_verify", "cli.verify", None),
)


class Recorder:
    """Install span wrappers for one traced invocation and aggregate them."""

    def __init__(self):
        self.spans: list[list] = []
        self.quad_neval = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, annotate):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            result = exc = None
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
                if annotate is not None:
                    rec[4] = annotate(args, result, exc)
        return wrapper

    def _counting_quad(self, fn):
        def wrapper(*args, **kwargs):
            res = fn(*args, **kwargs)
            if kwargs.get("full_output"):
                self.quad_neval += res[2]["neval"]
            return res
        return wrapper

    def __enter__(self):
        for module, attr, name, annotate in TARGETS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, annotate))
        self._saved.append((oracles, "quad", oracles.quad))
        oracles.quad = self._counting_quad(oracles.quad)
        return self

    def __exit__(self, *exc_info):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False

    def layer_metrics(self, bytes_out: int) -> dict[str, float]:
        """Per-layer counts and self times of everything recorded so far."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        bands = {b: [0, 0.0, 0] for b, _ in Z_BANDS}
        keys = set()
        special_errors = bounds_errors = quad_errors = 0
        mc_samples = mc_refused = 0
        for i, (name, start, end, _, note) in enumerate(self.spans):
            own = end - start - child[i]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            if name == "special":
                key, band, terms, failed = note
                keys.add(key)
                acc = bands[band]
                acc[0] += 1
                acc[1] += own
                acc[2] += terms
                special_errors += failed
            elif name == "bounds.check_point":
                bounds_errors += note
            elif name == "oracles.quad":
                quad_errors += note
            elif name == "oracles.mc":
                mc_samples += note[0]
                mc_refused += note[1]

        n_special = calls.get("special", 0)
        out = {
            "special.calls": n_special,
            "special.self_s": self_s.get("special", 0.0),
            "special.terms": sum(acc[2] for acc in bands.values()),
            "special.distinct_key_ratio":
                len(keys) / n_special if n_special else 0.0,
            "special.errors": special_errors,
        }
        for band, (n, own, terms) in bands.items():
            out[f"special.z_{band}.calls"] = n
            out[f"special.z_{band}.self_s"] = own
            out[f"special.z_{band}.terms"] = terms
        for name in ("moments.gap", "moments.product_moment",
                     "bounds.check_point"):
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out["bounds.errors"] = bounds_errors
        out["verify.evaluate_point.self_s"] = self_s.get("verify.evaluate_point", 0.0)
        out["verify.run_sweep.self_s"] = self_s.get("verify.run_sweep", 0.0)
        for short, name in (("quad", "oracles.quad"), ("mc", "oracles.mc")):
            out[f"oracles.{short}.calls"] = calls.get(name, 0)
            out[f"oracles.{short}.self_s"] = self_s.get(name, 0.0)
        out["oracles.quad.neval"] = self.quad_neval
        out["oracles.quad.errors"] = quad_errors
        out["oracles.mc.samples"] = mc_samples
        out["oracles.mc.refused"] = mc_refused
        out["cli.serialize_s"] = self_s.get("cli.verify", 0.0)
        out["cli.bytes_out"] = bytes_out
        return out


# Counts that must repeat exactly between traced runs of one input.
DETERMINISTIC = ("special.terms", "special.calls", "special.distinct_key_ratio",
                 "oracles.quad.neval", "oracles.mc.samples")
