"""Per-layer tracing of homsim from outside the package.

The program itself carries no tracing.  While a `Tracer` is installed it
replaces chosen functions and methods of `homsim` with wrappers that record a
span (inclusive time, self time, call count) around each call, plus a few
counts read from arguments and results.  Uninstalling restores the originals,
so untraced runs execute the unmodified code.

Spans nest: a span's self time is its duration minus the durations of the
spans opened directly inside it.  A call into a layer that is already the
innermost open span (the model builders calling each other, for instance)
belongs to that span and is not counted again.

Pool workers are forked after installation, so they inherit the wrappers.
Each worker records into a fresh collector for the duration of one chunk and
hands its totals back inside the pickled chunk result; the parent merges them
when the pool shuts down.  What a worker does outside the chunk call
(unpickling its task, pickling its result) is the only work no span covers.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor

import homsim.experiments as experiments
import homsim.hilbert as hilbert
import homsim.lindblad as lindblad
import homsim.model as model
import homsim.trajectory as trajectory

_clock = time.perf_counter

MODEL_BUILDERS = (
    "build_hamiltonian",
    "build_h_eff",
    "build_h_eff_adiabatic",
    "stage_hamiltonian",
    "build_jump_channels",
    "total_jump_operator",
    "phase_gate",
    "initial_state",
)

# private StageEngine methods; a refactor may delete them, and their metrics
# then read as absent
PRIVATE_METHODS = {
    "trajectory.collapse": "_collapse",
    "trajectory.lazy_scan": "_fast_scan_lazy",
    "trajectory.bisect": "_bisect",
}

JUMP_GROUPS = {"D1": "D1", "D2": "D2", "LOST_D1": "LOST", "LOST_D2": "LOST"}

# payloads unpickled from pool results, waiting to be merged by the main
# thread; module level because pickle can only reconstruct through a
# module-level function
_pending: list[dict] = []


class Collector:
    """Span totals and counts for one measured pass (or one worker chunk)."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.stack: list[list] = []   # [name, start, time covered by child spans]

    def open(self, name: str) -> bool:
        if self.stack and self.stack[-1][0] == name:
            return False
        self.stack.append([name, _clock(), 0.0])
        return True

    def close(self):
        name, start, child = self.stack.pop()
        dur = _clock() - start
        self.calls[name] += 1
        self.incl[name] += dur
        self.self_s[name] += dur - child
        if self.stack:
            self.stack[-1][2] += dur

    def export(self) -> dict:
        return {
            "calls": dict(self.calls),
            "incl": dict(self.incl),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }

    def merge(self, payload: dict):
        for key in ("calls", "incl", "self_s", "counts"):
            mine = getattr(self, key)
            for name, v in payload[key].items():
                mine[name] += v


class _TracedParts(tuple):
    """A worker's chunk result carrying that chunk's trace totals.  Pickling
    reduces it to a plain tuple on the parent side (see _merge_remote)."""

    payload: dict

    def __reduce__(self):
        return (_merge_remote, (tuple(self), self.payload))


def _merge_remote(parts: tuple, payload: dict) -> tuple:
    # runs in the parent's executor thread while the result is unpickled
    _pending.append(payload)
    return parts


class Tracer:
    """Installs and removes the span wrappers; holds the active collector."""

    def __init__(self):
        self.col = Collector()
        self.absent: list[str] = []
        self._undo: list[tuple] = []

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap the layers and start a fresh collector."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        self.col = Collector()
        self.pid = os.getpid()
        self.absent = []
        span = self._span_wrapper

        eng = trajectory.StageEngine
        self._patch(trajectory, "_scipy_expm", span("trajectory.expm", trajectory._scipy_expm))
        self._patch(eng, "__init__", span("trajectory.engine_build", eng.__init__))
        for name in MODEL_BUILDERS:
            self._patch_everywhere(name, span("model.build", getattr(model, name)))
        self._patch_everywhere(
            "run_until_click",
            span("trajectory.window", trajectory.run_until_click, after=self._count_jumps),
        )
        for meth in ("coarse_curve", "fixed_curve"):
            self._patch(eng, meth, self._curve_wrapper(getattr(eng, meth), meth))
        for metric, meth in PRIVATE_METHODS.items():
            if hasattr(eng, meth):
                self._patch(eng, meth, span(metric, getattr(eng, meth)))
            else:
                self.absent.append(metric)

        rng = trajectory.RngStream
        for meth in ("step_uniform", "step_uniforms", "channel_uniform"):
            self._patch(rng, meth, span("trajectory.rng", getattr(rng, meth)))
        self._patch(rng, "_gen", self._count_wrapper("trajectory.rng_streams", rng._gen))

        sv = hilbert.StateVector
        self._patch(sv, "__init__", span("hilbert.state_wrap", sv.__init__))

        for name in ("_stage1_chunk", "_protocol_chunk"):
            self._patch(experiments, name, self._chunk_wrapper(getattr(experiments, name)))
        self._patch(experiments, "ProcessPoolExecutor", self._pool_class())

        self._patch(
            lindblad, "integrate", span("lindblad.integrate", lindblad.integrate,
                                        before=self._count_rk4_steps)
        )
        self._patch_everywhere(
            "run_unconditioned", span("lindblad.unconditioned", trajectory.run_unconditioned)
        )

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, attr: str, wrapper):
        """Replace a function in every homsim module that imported it by name."""
        original = wrapper.__wrapped__
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "homsim" or mod_name.startswith("homsim.")) and getattr(
                mod, attr, None
            ) is original:
                self._patch(mod, attr, wrapper)

    # -- wrappers --------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a call into a layer."""
        col = self.col
        opened = col.open(name)
        try:
            yield
        finally:
            if opened:
                col.close()

    def _span_wrapper(self, name: str, fn, *, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            col = tracer.col
            if before is not None:
                before(col, args, kwargs)
            if not col.open(name):
                return fn(*args, **kwargs)
            try:
                out = fn(*args, **kwargs)
            finally:
                col.close()
            if after is not None:
                after(col, out)
            return out

        return wrapper

    def _count_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.col.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _curve_wrapper(self, fn, meth: str):
        """Span around a curve builder; a call whose result was already in the
        engine's curve cache counts as a hit."""
        tracer = self
        cache_attr = {"coarse_curve": "_coarse_cache", "fixed_curve": "_fixed_cache"}[meth]

        @functools.wraps(fn)
        def wrapper(engine, *args, **kwargs):
            col = tracer.col
            before = list(getattr(engine, cache_attr, {}).values())
            if not col.open("trajectory.curve"):
                return fn(engine, *args, **kwargs)
            try:
                out = fn(engine, *args, **kwargs)
            finally:
                col.close()
            if any(v is out for v in before):
                col.counts["trajectory.curve_hits"] += 1
            return out

        return wrapper

    def _chunk_wrapper(self, fn):
        """Span around one experiments chunk.  In a pool worker the chunk
        records into its own collector, returned with the chunk's result."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(args):
            if os.getpid() == tracer.pid:
                col = tracer.col
                col.open("experiments.chunk")
                try:
                    return fn(args)
                finally:
                    col.close()
            saved, tracer.col = tracer.col, Collector()
            try:
                tracer.col.open("experiments.chunk")
                parts = fn(args)
                tracer.col.close()
                traced = _TracedParts(parts)
                traced.payload = tracer.col.export()
                return traced
            finally:
                tracer.col = saved

        return wrapper

    def _pool_class(self):
        tracer = self

        class TracedPool(ProcessPoolExecutor):
            """Pool whose lifetime is a span; merges worker totals on exit."""

            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                col = tracer.col
                col.counts["experiments.pool_starts"] += 1
                self._traced_col = col
                self._t0 = _clock()
                col.open("experiments.pool")

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    col = self._traced_col
                    col.close()
                    wall = _clock() - self._t0
                    col.counts["experiments.pool_slot_s"] += self._max_workers * wall
                    while _pending:
                        payload = _pending.pop()
                        col.counts["experiments.pool_chunk_s"] += payload["incl"].get(
                            "experiments.chunk", 0.0
                        )
                        col.merge(payload)

        return TracedPool

    @staticmethod
    def _count_jumps(col: Collector, result):
        for ev in result.events:
            col.counts["trajectory.jumps." + JUMP_GROUPS.get(ev.tag.name, "SPONT")] += 1

    @staticmethod
    def _count_rk4_steps(col: Collector, args, kwargs):
        bound = _INTEGRATE_SIG.bind(*args, **kwargs)
        t_end, dt_rk = bound.arguments["t_end"], bound.arguments["dt_rk"]
        # derived, not counted: integrate() steps in a local loop that no
        # wrapper can reach, so this repeats its step-count formula
        col.counts["lindblad.rk4_steps"] += max(1, int(round(t_end / dt_rk)))


_INTEGRATE_SIG = inspect.signature(lindblad.integrate)


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("ratio", "efficiency", "per_traj", "overhead_frac")):
        return "1"
    return "count"


def layer_metrics(col: Collector, n_traj: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass that ran n_traj trajectories.
    Times are inclusive unless the name says self; a layer whose method no
    longer exists reads 0."""
    calls, incl, counts = col.calls, col.incl, col.counts
    jumps = {g: counts["trajectory.jumps." + g] for g in ("D1", "D2", "LOST", "SPONT")}
    curve_calls = calls["trajectory.curve"]
    slot_s = counts["experiments.pool_slot_s"]
    out = {
        "trajectory.rng_streams": counts["trajectory.rng_streams"],
        "trajectory.rng_s": incl["trajectory.rng"],
        "trajectory.expm_calls": calls["trajectory.expm"],
        "trajectory.expm_s": incl["trajectory.expm"],
        "trajectory.engine_builds": calls["trajectory.engine_build"],
        "trajectory.engine_build_s": incl["trajectory.engine_build"],
        "model.build_calls": calls["model.build"],
        "model.build_s": incl["model.build"],
        "trajectory.windows": calls["trajectory.window"],
        "trajectory.window_self_s": col.self_s["trajectory.window"],
        "trajectory.curve_calls": curve_calls,
        "trajectory.curve_hit_ratio": (
            counts["trajectory.curve_hits"] / curve_calls if curve_calls else 0.0
        ),
        "trajectory.curve_s": incl["trajectory.curve"],
    }
    for metric in PRIVATE_METHODS:
        out[metric + "_calls"] = calls[metric]
        out[metric + "_s"] = incl[metric]
    out.update({"trajectory.jumps." + g: v for g, v in jumps.items()})
    out["trajectory.jumps_per_traj"] = sum(jumps.values()) / n_traj
    out.update(
        {
            "hilbert.state_wraps": calls["hilbert.state_wrap"],
            "hilbert.state_wrap_s": incl["hilbert.state_wrap"],
            "experiments.chunks": calls["experiments.chunk"],
            "experiments.chunk_busy_s": incl["experiments.chunk"],
            "experiments.pool_starts": counts["experiments.pool_starts"],
            "experiments.pool_efficiency": (
                counts["experiments.pool_chunk_s"] / slot_s if slot_s else 0.0
            ),
            "experiments.reduce_s": col.self_s["experiments.point"],
            "lindblad.rk4_steps": counts["lindblad.rk4_steps"],
            "lindblad.integrate_s": incl["lindblad.integrate"],
            "lindblad.unconditioned_traj": calls["lindblad.unconditioned"],
            "lindblad.unconditioned_s": incl["lindblad.unconditioned"],
        }
    )
    return {k: float(v) for k, v in out.items()}
