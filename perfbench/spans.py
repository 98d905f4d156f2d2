"""In-memory span tracer for the csmhyp benchmark.

The tracer rebinds module attributes that the pipeline looks up at call
time (``segre.saturate``, ``charclasses.csm``, ...) to wrappers that record
one span per call: name, start, end, parent span and op id.  Nothing under
``src/`` is edited; ``uninstall`` puts every original function back.  A
name that no longer exists in its module is reported as absent.

Per-layer numbers are derived from span self times: a span's duration
minus the part of it covered by its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass

# Routes, Fulton, mu, Milnor and Euler: everything build_report evaluates
# in the Chow ring after the Segre class is known.  classes_from_segre
# bundles the routes; build_report does not call it today.
ROUTE_NAMES = (
    "csm",
    "csm_via_thickening",
    "csm_via_mu",
    "fulton",
    "mu_class",
    "s_x_minus_y_compact",
    "euler_characteristic",
    "milnor_total",
    "classes_from_segre",
)

# (module, attribute the callers look up, span name)
TARGETS = (
    ("csmhyp.charclasses", "parse_poly", "poly.parse_poly"),
    ("csmhyp.segre", "reduce_mod_p", "poly.reduce_mod_p"),
    ("csmhyp.segre", "buchberger", "groebner.buchberger"),
    ("csmhyp.segre", "saturate", "groebner.saturate"),
    ("csmhyp.segre", "dim_degree", "groebner.dim_degree"),
    ("csmhyp.charclasses", "segre_singular_scheme", "segre.segre_singular_scheme"),
    ("csmhyp.segre", "jacobian_scheme", "segre.jacobian_scheme"),
    ("csmhyp.segre", "projective_degrees", "segre.projective_degrees"),
    ("csmhyp.segre", "segre_from_degrees", "segre.segre_from_degrees"),
) + tuple(("csmhyp.charclasses", f, f"charclasses.{f}") for f in ROUTE_NAMES)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int


class Tracer:
    """Records spans around the wrapped functions while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []
        self.op = 0

    # -- recording ---------------------------------------------------------

    def _count(self, key, value=1, how="sum"):
        if how == "max":
            self.counters[key] = max(self.counters.get(key, 0), value)
        else:
            self.counters[key] = self.counters.get(key, 0) + value

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called ``name``."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, 0.0, 0.0, parent, self.op))
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            span = self.spans[idx]
            span.start, span.end = start, end

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            self._observe(name, args, result)
            return result

        return wrapper

    def _observe(self, name, args, result):
        if name == "groebner.buchberger":
            self._count("groebner.buchberger.basis_max", len(result.gens), "max")
        elif name == "groebner.saturate":
            # saturate(I, J): the per-generator loop runs once per J generator
            self._count("groebner.saturate.jacobian_gens", len(args[1].gens))
            self._count("groebner.saturate.basis_max", len(result.gens), "max")
        elif name == "segre.projective_degrees":
            pd = result[0]
            self._count("segre.trials", len(pd.trials))
            self._count("segre.trials_accepted", sum(t.accepted for t in pd.trials))
            self._count("segre.cuts", (pd.n + 1) * len(pd.trials))

    # -- installation ------------------------------------------------------

    def install(self):
        for module_name, attr, span_name in self.targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                if span_name not in self.absent:
                    self.absent.append(span_name)
                continue
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original))

    def uninstall(self):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Span name -> (total self time in seconds, number of spans)."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        out: dict[str, tuple[float, int]] = {}
        for span, child in zip(self.spans, covered):
            total, count = out.get(span.name, (0.0, 0))
            out[span.name] = (total + span.end - span.start - child, count + 1)
        return out


def originals() -> dict[str, object]:
    """The current binding of every traced name that exists."""
    out = {}
    for module_name, attr, span_name in TARGETS:
        module = importlib.import_module(module_name)
        if hasattr(module, attr):
            out[span_name] = getattr(module, attr)
    return out
