"""Span tracer that instruments starbody from the outside.

The tracer patches the public callables of the six starbody modules for the
length of a ``with`` block: public functions at every module that binds them
by name, public methods (and body constructors) on their classes, and
``linprog`` wherever the geometry layer can reach it.  Wrappers record a span
(name, layer, start, end, parent) only while the tracer is armed, so input
generation and output checks stay out of the per-layer numbers.  Nothing in
``src/`` changes; leaving the block restores every original object.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

LAYERS = ("geometry", "density", "optimizer", "gibbs", "learn", "cli")
EVAL_METHODS = frozenset({"gauge_many", "radial_many", "gauge", "radial", "gauge_certificate"})
CSV_METHODS = frozenset({"to_csv", "from_csv"})
GAUGE_KINDS = ("dictionary", "radial2d", "radial3d", "ellipsoid", "union")


class Span:
    __slots__ = ("name", "layer", "method", "start", "end", "parent", "child_s", "attrs", "error")

    def __init__(self, name, layer, method, parent, attrs):
        self.name = name
        self.layer = layer
        self.method = method
        self.parent = parent
        self.attrs = attrs
        self.child_s = 0.0
        self.error = None
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s


def _eval_attrs(args, kwargs):
    body, pts = args[0], (args[1] if len(args) > 1 else next(iter(kwargs.values())))
    shape = getattr(pts, "shape", ())
    return {"body": type(body).__name__, "dim": body.dim, "points": shape[0] if len(shape) == 2 else 1}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _fit_result(report):
    return {"accepted": len(report.risk_trace) - 1, "max_iters": report.config.max_iters}


# attrs hooks: (name -> fn(args, kwargs) -> dict), result hooks: (name -> fn(result) -> dict)
ARG_HOOKS = {
    "gibbs.sample_gibbs": lambda a, k: {"dim": a[0].dim, "draws": int(_arg(a, k, 1, "n"))},
    "density.rho_empirical": lambda a, k: {
        "kernel_evals": _arg(a, k, 0, "samples").m * _arg(a, k, 1, "grid").n
    },
}
RESULT_HOOKS = {
    "learn.fit_ellipsoid": _fit_result,
    "learn.fit_dictionary": _fit_result,
    "learn.fit_union_ellipsoids": _fit_result,
}


class Tracer:
    """In-memory span recorder; use ``with tracer.installed(): ...``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.active = False
        self._stack: list[Span] = []
        self._undo: list[tuple] = []

    # -- recording -------------------------------------------------------
    def open(self, name, layer, method="", attrs=None) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, layer, method, parent, attrs or {})
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.seconds
        self.spans.append(span)

    @contextlib.contextmanager
    def armed(self, name):
        """A benchmark-side span; library calls inside it are recorded."""
        span = self.open(name, "bench")
        self.active = True
        try:
            yield span
        finally:
            self.active = False
            self.close(span)

    def _wrap(self, fn, name, layer, method):
        tracer = self
        arg_hook = ARG_HOOKS.get(name)
        if method in EVAL_METHODS:
            arg_hook = _eval_attrs
        result_hook = RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer.open(name, layer, method, arg_hook(args, kwargs) if arg_hook else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer.close(span)
            if result_hook is not None:
                span.attrs.update(result_hook(result))
            return result

        return traced

    def _count_wrap(self, fn, key):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.active:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching --------------------------------------------------------
    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self, package):
        """Patch ``package``'s six layer modules for the length of the block."""
        self.install(package)
        try:
            yield self
        finally:
            self.uninstall()

    def install(self, package) -> None:
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        namespaces = [package, *modules.values()]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(obj, f"{layer}.{attr}", layer, attr)
                    for ns in namespaces:
                        for ns_attr, ns_obj in list(vars(ns).items()):
                            if ns_obj is obj:
                                self._set(ns, ns_attr, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._patch_class(obj, layer, modules["geometry"].StarBody)
        # count LP solves wherever the geometry layer can reach linprog,
        # including a lazy ``from scipy.optimize import linprog``
        scipy_optimize = importlib.import_module("scipy.optimize")
        linprog = scipy_optimize.linprog
        counted = self._count_wrap(linprog, "lp_solves")
        for owner in [scipy_optimize, *namespaces]:
            if vars(owner).get("linprog") is linprog:
                self._set(owner, "linprog", counted)

    def _patch_class(self, cls, layer, star_body) -> None:
        for attr, member in list(cls.__dict__.items()):
            is_ctor = attr == "__init__" and issubclass(cls, star_body)
            if attr.startswith("_") and not is_ctor:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                self._set(cls, attr, type(member)(self._wrap(member.__func__, name, layer, attr)))
            elif inspect.isfunction(member):
                self._set(cls, attr, self._wrap(member, name, layer, attr))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _outermost(spans, pred):
    """Spans matching pred whose parent does not also match pred."""
    return [s for s in spans if pred(s) and not (s.parent is not None and pred(s.parent))]


def _gauge_kind(span) -> str | None:
    body = span.attrs.get("body")
    if body == "RadialGridBody":
        return {2: "radial2d", 3: "radial3d"}.get(span.attrs["dim"])
    return {
        "DictionaryPolytopeBody": "dictionary",
        "EllipsoidBody": "ellipsoid",
        "UnionBody": "union",
    }.get(body)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers over everything the tracer recorded.

    Totals (``*_s`` times and counts) cover the whole traced pass; rates are
    ratios of totals.  A row whose code path did not run reads 0.
    """
    spans = tracer.spans
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(name):
        return sum(s.seconds for s in by_name[name])

    def ratio(num, den):
        return num / den if den else 0.0

    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for s in spans:
        if s.layer in LAYERS:
            out[f"{s.layer}.self_s"] += s.self_s

    is_eval = lambda s: s.layer == "geometry" and s.method in EVAL_METHODS  # noqa: E731
    evals = [s for s in spans if is_eval(s)]
    out["geometry.gauge_points"] = sum(s.attrs["points"] for s in _outermost(evals, is_eval))
    out["geometry.lp_solves"] = tracer.counts["lp_solves"]
    is_ctor = lambda s: s.layer == "geometry" and s.method == "__init__"  # noqa: E731
    out["geometry.body_build_s"] = sum(s.seconds for s in _outermost(spans, is_ctor))
    for kind in GAUGE_KINDS:
        same = lambda s, kind=kind: is_eval(s) and _gauge_kind(s) == kind  # noqa: E731
        top = _outermost(evals, same)
        secs, pts = sum(s.seconds for s in top), sum(s.attrs["points"] for s in top)
        out[f"geometry.gauge_us_per_pt.{kind}"] = 1e6 * ratio(secs, pts)

    out["density.rho_analytic_s"] = total("density.rho_analytic")
    out["density.rho_empirical_s"] = total("density.rho_empirical")
    out["density.kernel_evals"] = sum(s.attrs["kernel_evals"] for s in by_name["density.rho_empirical"])
    out["density.csv_io_s"] = sum(s.seconds for s in spans if s.layer == "density" and s.method in CSV_METHODS)

    cvx = by_name["optimizer.check_convexity"]
    out["optimizer.convexity_s"] = sum(s.seconds for s in cvx)
    cvx_ids = {id(s) for s in cvx}
    out["optimizer.convexity_gauge_calls"] = sum(1 for s in evals if id(s.parent) in cvx_ids)

    for d in (2, 3, 4):
        runs = [s for s in by_name["gibbs.sample_gibbs"] if s.attrs["dim"] == d and not s.error]
        out[f"gibbs.draws_per_s.d{d}"] = ratio(sum(s.attrs["draws"] for s in runs), sum(s.seconds for s in runs))
    out["gibbs.ks_s"] = total("gibbs.gauge_ks_statistic")

    fits = [s for s in by_name["learn.fit_dictionary"] if not s.error]
    iters_run = sum(min(s.attrs["max_iters"], s.attrs["accepted"] + 1) for s in fits)
    out["learn.fit_dictionary_s_per_iter"] = ratio(sum(s.seconds for s in fits), iters_run)
    fit_ids = {id(s) for s in fits}
    candidates = sum(
        1 for s in by_name["geometry.DictionaryPolytopeBody.__init__"] if id(s.parent) in fit_ids
    ) - len(fits)
    out["learn.fit_dictionary_accept_ratio"] = ratio(sum(s.attrs["accepted"] for s in fits), candidates)
    ell = [
        s for s in by_name["learn.fit_ellipsoid"]
        if not s.error and (s.parent is None or s.parent.name != "learn.fit_union_ellipsoids")
    ]
    out["learn.fit_ellipsoid_iters"] = ratio(sum(s.attrs["accepted"] for s in ell), len(ell))
    unions = by_name["learn.fit_union_ellipsoids"]
    ok = [s for s in unions if not s.error]
    out["learn.fit_union_iters"] = ratio(sum(s.attrs["accepted"] for s in ok), len(ok))
    out["learn.fit_union_failures"] = len(unions) - len(ok)

    out["cli.work_s"] = total("cli.main")
    return out
