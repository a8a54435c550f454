"""Span tracer for the benchmark's traced run.

``Tracer.install`` wraps the public functions at each iqwalk module boundary
under every name they are imported as, so calls between modules go through
the wrappers too.  Each call records one span (name, start, end, parent) in
flat in-memory arrays; self time is derived from the spans after the run.
Nothing inside the package changes, and ``Tracer.uninstall`` restores the
originals.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array

import numpy as np

from iqwalk.errors import ZeroProbabilityError

# (span name, module, attribute) of every traced function.
TARGETS = (
    ("walk.evolve", "iqwalk.walk", "evolve"),
    ("walk.reduced", "iqwalk.walk", "PureState.reduced"),
    ("linalg.reduce", "iqwalk.linalg", "reduced_density"),
    ("linalg.eig", "iqwalk.linalg", "hermitian_eig"),
    ("linalg.sqrt", "iqwalk.linalg", "matrix_sqrt_psd"),
    ("linalg.svd", "iqwalk.linalg", "schatten1_norm"),
    ("conditioning.vertex_state", "iqwalk.conditioning", "unconditioned_vertex_state"),
    ("conditioning.postselect", "iqwalk.conditioning", "postselect_coin"),
    ("metrics.entropy", "iqwalk.metrics", "von_neumann_entropy"),
    ("metrics.logneg", "iqwalk.metrics", "log_negativity"),
    ("metrics.concurrence", "iqwalk.metrics", "n_concurrence"),
    ("metrics.closeness", "iqwalk.metrics", "closeness"),
    ("metrics.validate", "iqwalk.metrics", "validate_density_matrix"),
    ("runner.reference_density", "iqwalk.runner", "reference_density"),
    ("runner.run_sweep", "iqwalk.runner", "run_sweep"),
    ("runner.run_metric_series", "iqwalk.runner", "run_metric_series"),
    ("runner.series_csv", "iqwalk.runner", "series_csv"),
    ("runner.sweep_json", "iqwalk.runner", "sweep_json"),
    ("runner.write", "iqwalk.runner", "_write"),
)

METRIC_FUNCTIONS = ("metrics.entropy", "metrics.logneg", "metrics.concurrence",
                    "metrics.closeness")
ROOT_SPAN = "bench.body"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts = {"walk.states": 0, "walk.state_bytes": 0, "linalg.eig.max_dim": 0,
                       "linalg.eig.flops": 0, "conditioning.zero_prob": 0,
                       "runner.io.bytes": 0}
        self.configs: set = set()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        name_id = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except ZeroProbabilityError:
                if name == "conditioning.postselect":
                    counts["conditioning.zero_prob"] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _after_evolve(self, args, result):
        config = args[0]
        states = result if isinstance(result, list) else [result]
        self.counts["walk.states"] += len(states)
        self.counts["walk.state_bytes"] += len(states) * states[0].amplitudes.size * 16
        self.configs.add((config.topology, config.coin, config.steps))

    def _after_eig(self, args, result):
        dim = int(np.shape(args[0])[0])
        self.counts["linalg.eig.max_dim"] = max(self.counts["linalg.eig.max_dim"], dim)
        self.counts["linalg.eig.flops"] += dim ** 3

    def _after_text(self, args, result):
        self.counts["runner.io.bytes"] += len(result.encode())

    def _after_write(self, args, result):
        self.counts["runner.io.bytes"] += len(args[1].encode())

    def call(self, fn, *args):
        """Run ``fn(*args)`` as the root span of the traced run."""
        return self._wrap(ROOT_SPAN, fn)(*args)

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Replace every traced function under every name it is bound to in
        the loaded iqwalk modules."""
        after = {"walk.evolve": self._after_evolve, "linalg.eig": self._after_eig,
                 "runner.series_csv": self._after_text, "runner.sweep_json": self._after_text,
                 "runner.write": self._after_write}
        modules = [m for k, m in sys.modules.items() if k == "iqwalk" or k.startswith("iqwalk.")]
        for span, module_name, attr in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                wrapper = self._wrap(span, original, after.get(span))
                self._patch(owner, attr, wrapper)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(span, original, after.get(span))
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def _patch(self, owner, name, wrapper) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # -- derived metrics -------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts, self times and computed sizes of the traced run.

        A span's self time is its duration minus the durations of the spans
        it called directly.
        """
        n_names = len(self.names)
        name = np.frombuffer(self.span_name, dtype=np.intc)
        parent = np.frombuffer(self.span_parent, dtype=np.intc)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child

        calls = dict(zip(self.names, np.bincount(name, minlength=n_names).tolist()))
        self_s = dict(zip(self.names, np.bincount(name, self_time, n_names).tolist()))
        total_s = dict(zip(self.names, np.bincount(name, dur, n_names).tolist()))

        evals = sum(calls[k] for k in METRIC_FUNCTIONS)
        c = self.counts
        out = {
            "walk.evolve.calls": calls["walk.evolve"],
            "walk.evolve.self_s": self_s["walk.evolve"],
            "walk.states": c["walk.states"],
            "walk.state_mb": c["walk.state_bytes"] / 2 ** 20,
            "walk.reduced.self_s": self_s["walk.reduced"],
            "runner.evolve_per_config": calls["walk.evolve"] / max(1, len(self.configs)),
            "conditioning.vertex_state.calls": calls["conditioning.vertex_state"],
            "conditioning.vertex_state.self_s": self_s["conditioning.vertex_state"],
            "conditioning.postselect.calls": calls["conditioning.postselect"],
            "conditioning.postselect.self_s": self_s["conditioning.postselect"],
            "conditioning.zero_prob": c["conditioning.zero_prob"],
            "linalg.reduce.calls": calls["linalg.reduce"],
            "linalg.reduce.self_s": self_s["linalg.reduce"],
            "linalg.eig.calls": calls["linalg.eig"],
            "linalg.eig.self_s": self_s["linalg.eig"],
            "linalg.eig.max_dim": c["linalg.eig.max_dim"],
            "linalg.eig.flops": c["linalg.eig.flops"],
            "linalg.sqrt.calls": calls["linalg.sqrt"],
            "linalg.sqrt.self_s": self_s["linalg.sqrt"],
            "linalg.svd.calls": calls["linalg.svd"],
            "linalg.svd.self_s": self_s["linalg.svd"],
            "metrics.evals": evals,
            "metrics.validate.calls": calls["metrics.validate"],
            "metrics.validate.self_s": self_s["metrics.validate"],
            "metrics.eig_per_eval": calls["linalg.eig"] / max(1, evals),
            "metrics.self_s": sum(self_s[k] for k in METRIC_FUNCTIONS + ("metrics.validate",)),
            "runner.reference_density.calls": calls["runner.reference_density"],
            "runner.reference_density.self_s": self_s["runner.reference_density"],
            "runner.self_s": self_s["runner.run_sweep"] + self_s["runner.run_metric_series"],
            "runner.io.bytes": c["runner.io.bytes"],
            "runner.io.s": (total_s["runner.series_csv"] + total_s["runner.sweep_json"]
                            + total_s["runner.write"]),
            "bench.body.self_s": self_s[ROOT_SPAN],
            "trace.spans": len(dur),
        }
        for key in METRIC_FUNCTIONS:
            out[f"{key}.self_s"] = self_s[key]
        return out


def span_cost(calls: int = 100_000, rounds: int = 5) -> float:
    """Seconds the wrapper adds to one call: the median over ``rounds`` of
    (time of ``calls`` calls of a wrapped no-op - time of as many bare
    calls) / ``calls``.  Times the span count, it estimates the tracing
    overhead of a run without a second, untraced pass."""
    def noop():
        return None

    costs = []
    for _ in range(rounds):
        wrapped = Tracer()._wrap("noop", noop)
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t1 = time.perf_counter()
        for _ in range(calls):
            noop()
        t2 = time.perf_counter()
        costs.append(((t1 - t0) - (t2 - t1)) / calls)
    return statistics.median(costs)
