"""Per-layer tracing of the jumpclust package from outside.

Each traced function is replaced, for the duration of a traced run, by a
wrapper that records a span (calls, total time, self time) under the name
``<module>.<function>``.  A wrapper is installed where the caller looks the
name up: ``chain`` calls ``log_target`` through its own module globals, so
the span ``posterior.log_target`` is patched into ``jumpclust.chain``.
Self time is a span's duration minus the time of the wrapped spans it
called.  Nothing in the package is edited.

Every benchmark time is CPU time of the measuring process (``CLOCK``).
The package runs single-threaded (one BLAS thread, serial repetitions)
and does no I/O inside a timed region, so on an unshared machine this
equals wall time.  On a shared sandbox it leaves out the time the
hypervisor gives the CPU to other tenants, which made wall times swing by
up to 40 % between runs.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import time
from dataclasses import dataclass, field

CLOCK = time.process_time

# span name -> modules whose global of that name the callers read
SPAN_SITES = {
    "core.seeded_rng": ("online", "cli", "priors", "metrics"),
    "datagen.generate": ("datagen", "cli"),
    "scoring.score": ("posterior",),
    "scoring.score_batch": ("posterior",),
    "priors.log_prior": ("posterior",),
    "priors.log_q": ("priors",),
    "priors.log_prior_batch": ("posterior",),
    "priors.estimate_truncation_prob": ("priors",),
    "posterior.log_target": ("chain",),
    "posterior.grid_oracle": ("cli",),
    "proposals.kmeans_fit": ("proposals", "metrics"),
    "proposals.student_log_density": ("chain",),
    "proposals.student_sample": ("chain",),
    "chain.step": ("chain",),
    "chain.run_chain": ("online", "cli"),
    "chain.initial_state": ("online", "cli"),
    "online.run_stream": ("online", "cli"),
    "online.run_synthetic_repetitions": ("cli",),
    "metrics.regret_report": ("cli",),
    "metrics.ocl": ("metrics",),
    "cli.main": ("cli",),
}

# every validation of a center vector runs Centers.__post_init__
CENTERS_SPAN = "core.Centers"

# (metric name, unit, better) in report order; see Tracer.metrics
PER_LAYER = (
    ("core.seeded_rng.calls", "count", "lower"),
    ("core.seeded_rng.total_s", "s", "lower"),
    ("core.Centers.calls", "count", "lower"),
    ("datagen.generate.total_s", "s", "lower"),
    ("scoring.score.calls", "count", "lower"),
    ("scoring.score.self_s", "s", "lower"),
    ("scoring.score.tkd", "ops", "lower"),
    ("scoring.score_batch.total_s", "s", "lower"),
    ("priors.log_prior.self_s", "s", "lower"),
    ("priors.log_q.calls", "count", "lower"),
    ("priors.log_q.self_s", "s", "lower"),
    ("priors.log_prior_batch.total_s", "s", "lower"),
    ("priors.estimate_truncation_prob.total_s", "s", "lower"),
    ("posterior.log_target.calls", "count", "lower"),
    ("posterior.log_target.self_s", "s", "lower"),
    ("posterior.grid_oracle.total_s", "s", "lower"),
    ("proposals.kmeans_fit.calls", "count", "lower"),
    ("proposals.kmeans_fit.total_s", "s", "lower"),
    ("proposals.kmeans_fit.per_step", "count", "lower"),
    ("proposals.kmeans_fit.nk_restarts", "ops", "lower"),
    ("proposals.student_log_density.calls", "count", "lower"),
    ("proposals.student_log_density.self_s", "s", "lower"),
    ("proposals.student_sample.calls", "count", "lower"),
    ("proposals.student_sample.self_s", "s", "lower"),
    ("chain.step.calls", "count", "lower"),
    ("chain.step.self_s", "s", "lower"),
    ("chain.step.mean_us", "us", "lower"),
    ("chain.run_chain.self_s", "s", "lower"),
    ("chain.initial_state.total_s", "s", "lower"),
    ("chain.accept_rate", "ratio", "higher"),
    ("chain.cross_k_accept_rate", "ratio", "higher"),
    ("online.run_stream.self_s", "s", "lower"),
    ("online.run_synthetic_repetitions.total_s", "s", "lower"),
    ("metrics.regret_report.total_s", "s", "lower"),
    ("metrics.ocl.calls", "count", "lower"),
    ("metrics.ocl.total_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def defining(span: str):
    """(module, function name) that a span name refers to."""
    mod, name = span.rsplit(".", 1)
    return importlib.import_module(f"jumpclust.{mod}"), name


def sites(span: str):
    """Modules into which the span's wrapper is patched."""
    _, name = defining(span)
    return [(importlib.import_module(f"jumpclust.{m}"), name) for m in SPAN_SITES[span]]


@contextlib.contextmanager
def patched(module, name: str, make_wrapper):
    """Replace ``module.name`` by ``make_wrapper(current)`` until exit."""
    original = getattr(module, name)
    setattr(module, name, make_wrapper(original))
    try:
        yield
    finally:
        setattr(module, name, original)


@dataclass
class Span:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    """Span table filled by the wrappers it installs."""

    spans: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    _child: list = field(default_factory=list)  # child time of each open span
    _kmeans_sig: object = None

    def wrap(self, span_name: str, fn, observe=None):
        span = self.spans.setdefault(span_name, Span())
        stack = self._child
        clock = CLOCK

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                span.calls += 1
                span.total_s += dt
                span.self_s += dt - child
                if stack:
                    stack[-1] += dt
            if observe is not None:
                observe(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    @contextlib.contextmanager
    def installed(self):
        """Patch every span into every site; restore the originals on exit."""
        from jumpclust.core import Centers
        from jumpclust.proposals import kmeans_fit

        self._kmeans_sig = inspect.signature(kmeans_fit)
        observers = {
            "scoring.score": self._observe_score,
            "proposals.kmeans_fit": self._observe_kmeans,
            "chain.step": self._observe_step,
        }
        with contextlib.ExitStack() as stack:
            stack.enter_context(
                patched(Centers, "__post_init__", lambda f: self.wrap(CENTERS_SPAN, f))
            )
            for span in SPAN_SITES:
                obs = observers.get(span)
                for module, name in sites(span):
                    stack.enter_context(
                        patched(module, name, lambda f, s=span, o=obs: self.wrap(s, f, o))
                    )
            yield self

    # counters read from the arguments and results of the wrapped calls

    def _observe_score(self, args, kwargs, out) -> None:
        c, ctx = args[0], args[1]
        self.count("score.tkd", ctx.t * c.k * c.dim)

    def _observe_kmeans(self, args, kwargs, out) -> None:
        bound = self._kmeans_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        n = len(a["data"])
        k = a["k"]
        if n >= k:  # fewer points than k are padded without a Lloyd fit
            starts = a["cfg"].restarts + (a["extra_init"] is not None)
            self.count("kmeans.nk_restarts", n * k * starts)

    def _observe_step(self, args, kwargs, out) -> None:
        k_from = args[0].k
        _, (k_prop, _, accepted) = out
        self.count("step.accepted", int(accepted))
        if k_prop != k_from:
            self.count("step.cross_k", 1)
            self.count("step.cross_k_accepted", int(accepted))

    def metrics(self, steps: int, overhead_frac: float) -> dict:
        """Every PER_LAYER metric; 0 where the workload never ran the function.

        ``steps`` is the number of stream observations absorbed, the base
        of ``proposals.kmeans_fit.per_step``.
        """

        def span(name):
            return self.spans.get(name, Span())

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for metric, _, _ in PER_LAYER:
            base, _, field_name = metric.rpartition(".")
            if field_name in ("calls", "total_s", "self_s"):
                out[metric] = getattr(span(base), field_name)
        step = span("chain.step")
        c = self.counters
        out["scoring.score.tkd"] = c.get("score.tkd", 0)
        out["proposals.kmeans_fit.per_step"] = ratio(span("proposals.kmeans_fit").calls, steps)
        out["proposals.kmeans_fit.nk_restarts"] = c.get("kmeans.nk_restarts", 0)
        out["chain.step.mean_us"] = ratio(step.total_s, step.calls) * 1e6
        out["chain.accept_rate"] = ratio(c.get("step.accepted", 0), step.calls)
        out["chain.cross_k_accept_rate"] = ratio(
            c.get("step.cross_k_accepted", 0), c.get("step.cross_k", 0)
        )
        out["trace.overhead_frac"] = overhead_frac
        return {name: out[name] for name, _, _ in PER_LAYER}

    def self_time_sum(self) -> float:
        return sum(s.self_s for s in self.spans.values())
