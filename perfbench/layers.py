"""Tracing of the dcprox layers from outside the package.

Spans are recorded around the calls into each layer: one per workload run,
one per instance, one per solve, and one per setup call (`cs.make_instance`,
`cs.gen_gaussian`, `cs.gen_dct`, `cs.build_cs_problem` and the
`spectral_norm` bound it takes).  Oracle and `A`/`A*` calls inside a solve
are too many for spans of their own; they are counted, with their busy
time, on the solve span.

Nothing here changes what the wrapped functions compute: every wrapper
passes its arguments through and returns the callee's result.
"""

import contextlib
import dataclasses
import time

import numpy as np

from dcprox import cs
from dcprox.linop import LinearMap

clock = time.perf_counter

#: ProblemSpec callables and the layer metric each one is counted under
ORACLES = {
    "prox_fC": "oracles.soft_threshold",
    "grad_h": "oracles.loss_grad",
    "subgrad_g": "oracles.norm_subgrad",
    "value_f": "oracles.reg_value",
    "value_h": "oracles.loss_value",
    "value_g": "oracles.reg_value",
}
LINOP = ("linop.apply", "linop.adjoint")


class NullTracer:
    """Tracing off: spans cost one no-op context manager, specs are untouched."""

    enabled = False

    def span(self, name, **attrs):
        return contextlib.nullcontext({})

    def instrument(self, spec, span):
        return spec

    @contextlib.contextmanager
    def patched(self):
        yield


class Tracer:
    """In-memory spans; each span is a dict with id, parent, name, start, end."""

    enabled = True

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, **attrs):
        rec = dict(attrs, id=len(self.spans), name=name,
                   parent=self._stack[-1]["id"] if self._stack else None)
        self.spans.append(rec)
        self._stack.append(rec)
        rec["start"] = clock()
        try:
            yield rec
        finally:
            rec["end"] = clock()
            self._stack.pop()

    def instrument(self, spec, span):
        """Copy of spec whose oracles and A/A* count calls and busy time.

        The counts land in span["calls"] as {metric: [calls, seconds]}.
        span["products_before_loop"] is the A/A* product count at the first
        subgrad_g call: every solver calls subgrad_g once at the top of each
        iteration, so products after it are those of the iterations.
        """
        acc = {name: [0, 0.0] for name in set(ORACLES.values()) | set(LINOP)}
        span["calls"] = acc
        apply_acc, adjoint_acc = acc["linop.apply"], acc["linop.adjoint"]

        def timed(fn, a):
            def wrapper(*args):
                t = clock()
                out = fn(*args)
                a[1] += clock() - t
                a[0] += 1
                return out
            return wrapper

        subgrad = timed(spec.subgrad_g, acc["oracles.norm_subgrad"])

        def subgrad_g(x):
            span.setdefault("products_before_loop", apply_acc[0] + adjoint_acc[0])
            return subgrad(x)

        map_A = spec.map_A
        fields = {f: timed(getattr(spec, f), acc[m]) for f, m in ORACLES.items()}
        fields["subgrad_g"] = subgrad_g
        fields["map_A"] = LinearMap(
            timed(map_A.apply, apply_acc), timed(map_A.adjoint, adjoint_acc),
            map_A.dim_in, map_A.dim_out,
        )
        return dataclasses.replace(spec, **fields)

    @contextlib.contextmanager
    def patched(self):
        """Route the module functions that cs calls through spans."""
        originals = {f: getattr(cs, f)
                     for f in ("gen_gaussian", "gen_dct", "spectral_norm")}

        def spanned(name, fn):
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)
            return wrapper

        def spectral_norm(map_, *args, **kwargs):
            count = [0]

            def counted(fn):
                def wrapper(v):
                    count[0] += 1
                    return fn(v)
                return wrapper

            with self.span("linop.spectral_norm") as rec:
                out = originals["spectral_norm"](
                    LinearMap(counted(map_.apply), counted(map_.adjoint),
                              map_.dim_in, map_.dim_out),
                    *args, **kwargs)
                rec["products"] = count[0]
            return out

        cs.gen_gaussian = spanned("cs.gen_gaussian", originals["gen_gaussian"])
        cs.gen_dct = spanned("cs.gen_dct", originals["gen_dct"])
        cs.spectral_norm = spectral_norm
        try:
            yield
        finally:
            for f, fn in originals.items():
                setattr(cs, f, fn)


def _dur(s):
    return s["end"] - s["start"]


def layer_metrics(spans):
    """Per-layer metrics of one traced pass, from its spans."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total(name):
        return float(sum(_dur(s) for s in by_name.get(name, [])))

    out = {
        "cs.make_instance.calls": len(by_name.get("cs.make_instance", [])),
        "cs.make_instance.s": total("cs.make_instance"),
        "cs.gen_gaussian.s": total("cs.gen_gaussian"),
        "cs.gen_dct.s": total("cs.gen_dct"),
        "cs.build_cs_problem.s": total("cs.build_cs_problem"),
        "linop.spectral_norm.s": total("linop.spectral_norm"),
        "linop.spectral_norm.products": sum(
            s["products"] for s in by_name.get("linop.spectral_norm", [])),
    }

    solves = [s for s in spans if "calls" in s]
    calls = {}
    for s in solves:
        for name, (n, t) in s["calls"].items():
            c = calls.setdefault(name, [0, 0.0])
            c[0] += n
            c[1] += t
    for name in LINOP + tuple(sorted(set(ORACLES.values()))):
        n, t = calls.get(name, (0, 0.0))
        if name != "oracles.reg_value":
            out[name + ".calls"] = n
        out[name + ".s"] = t
    iters = sum(s["iterations"] for s in solves)
    loop_products = []
    for s in solves:
        products = s["calls"]["linop.apply"][0] + s["calls"]["linop.adjoint"][0]
        loop_products.append(products - s.get("products_before_loop", products))
    iters = max(iters, 1)
    out["linop.products_per_iter"] = sum(loop_products) / iters
    # computed from the matrix size, not measured: m*d doubles per product
    out["linop.bytes_per_iter_computed"] = sum(
        p * s["m"] * s["d"] * 8 for p, s in zip(loop_products, solves)) / iters

    for layer, span_name in (("psg", "psg.solve"),
                             ("baselines.gppa", "baselines.gppa_solve"),
                             ("baselines.pdcae", "baselines.pdcae_solve")):
        group = by_name.get(span_name, [])
        n_iter = sum(s["iterations"] for s in group)
        busy = sum(t for s in group for _, t in s["calls"].values())
        out[layer + ".iterations"] = n_iter
        out[layer + ".s"] = total(span_name)
        out[layer + ".self_us_per_iter"] = (
            (total(span_name) - busy) / max(n_iter, 1) * 1e6)
        out[layer + ".converged_frac"] = float(np.mean(
            [s["status"] == "converged" for s in group]))
    return out
