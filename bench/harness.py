"""Tracing of the widebnn layers from outside the package.

:class:`Tracer` replaces every public function of a traced module (the names
in its ``__all__``), the public methods of its public classes and
``GaussianStream.__init__`` by a wrapper that records one span per call:

    (span id, name, parent id, job id, thread id, start, end, note)

The wrapper is installed wherever a widebnn module binds the original, so a
call such as ``experiments.width_sweep -> rejection_sample`` is timed at the
place the calling module looks the name up. Nothing under ``src/`` changes,
and :meth:`Tracer.uninstall` restores the originals.

A span's parent is the innermost open span of its own thread. A span opened
on a thread with nothing open (a worker thread of the sampler's pool) is
linked through the job it belongs to: its parent is the innermost open span
of the thread that runs the job. Spans stay in memory until the run ends.

Self time is a span's duration minus the union of its children's intervals,
so children that overlap on two threads are not subtracted twice.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gzip
import inspect
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter

LAYERS = ("numkit", "network", "likelihood", "sampler", "kernels", "metrics",
          "linreg", "experiments")
SWEEP_WIDTHS = (1, 10, 100, 1000)

SID, NAME, PARENT, JOB, THREAD, START, END, NOTE = range(8)
JOB_SPAN = "job"

_FACTOR = ("numkit.cholesky", "numkit.solve_spd", "numkit.sym_sqrt")


def _note_normal(args, kwargs, result):
    return int(result.size)


def _note_rejection_sample(args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    return (config.hidden_width, result.proposals, result.accepts, result.mode)


def _note_width_sweep(args, kwargs, result):
    return (args[0] if args else kwargs["config"]).workers


# What a span records besides its interval, by span name.
NOTES = {
    "numkit.GaussianStream.normal": _note_normal,
    "sampler.rejection_sample": _note_rejection_sample,
    "experiments.width_sweep": _note_width_sweep,
}


class Tracer:
    """Records spans of the widebnn layers while a job is open."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._job = None  # (job id, open-span stack of the job's thread)
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        note = NOTES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            job = tracer._job
            if job is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else job[1][-1]
            sid = next(tracer._ids)
            stack.append(sid)
            done = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                value = None
                if done and note is not None:
                    try:
                        value = note(args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError):
                        value = None  # the call's signature changed
                tracer.spans.append((sid, name, parent, job[0],
                                     threading.get_ident(), t0, t1, value))

        return traced

    def install(self, package) -> None:
        """Wrap the public callables of every traced layer of ``package``."""
        prefix = package.__name__ + "."
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package.__name__ or n.startswith(prefix))]
        for layer in LAYERS:
            mod = sys.modules.get(prefix + layer)
            if mod is None:
                continue
            for public in getattr(mod, "__all__", ()):
                obj = getattr(mod, public, None)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self.wrap(f"{layer}.{public}", obj)
                    for m in modules:
                        for attr, val in list(vars(m).items()):
                            if val is obj:
                                self._patch(m, attr, wrapped, obj)
                elif inspect.isclass(obj):
                    for attr, val in list(vars(obj).items()):
                        own_init = attr == "__init__" and not dataclasses.is_dataclass(obj)
                        if inspect.isfunction(val) and (own_init or not attr.startswith("_")):
                            self._patch(obj, attr,
                                        self.wrap(f"{layer}.{public}.{attr}", val), val)

    def _patch(self, owner, attr, new, old) -> None:
        setattr(owner, attr, new)
        self._patched.append((owner, attr, old))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, old = self._patched.pop()
            setattr(owner, attr, old)

    @contextlib.contextmanager
    def job(self, job_id):
        """Open the root span of one job on the calling thread."""
        stack = self._stack()
        root = next(self._ids)
        stack.append(root)
        self._job = (job_id, stack)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._job = None
            stack.pop()
            self.spans.append((root, JOB_SPAN, 0, job_id, threading.get_ident(),
                               t0, t1, None))

    def write(self, path) -> None:
        """Write every span, with its self time, as gzipped tab-separated text."""
        own = self_times(self.spans)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tjob\tthread\tname\tstart\tend\tself\tnote\n")
            for s in self.spans:
                fh.write(f"{s[SID]}\t{s[PARENT]}\t{s[JOB]}\t{s[THREAD]}\t{s[NAME]}\t"
                         f"{s[START]:.9f}\t{s[END]:.9f}\t{own[s[SID]]:.9f}\t"
                         f"{'' if s[NOTE] is None else s[NOTE]}\n")


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        children[s[PARENT]].append((s[START], s[END]))
    return {s[SID]: (s[END] - s[START])
            - union_length(children.get(s[SID], ()), s[START], s[END])
            for s in spans}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans, nproc: int) -> dict:
    """Per-layer metrics of the traced jobs, as name -> (value, unit).

    Seconds and counts are means per traced job. ``busy_s`` sums the
    outermost spans of a layer (a call into the layer from outside it), over
    all threads; ``self_s`` sums the layer's self time. A boundary that is
    never crossed reads 0.
    """
    name_of = {s[SID]: s[NAME] for s in spans}
    own = self_times(spans)
    jobs = max(1, sum(1 for s in spans if s[NAME] == JOB_SPAN))
    self_s = defaultdict(float)
    busy_s = defaultdict(float)
    calls = defaultdict(int)  # by span name
    entries = defaultdict(int)  # calls into a layer from outside it
    time_in = defaultdict(float)
    factor_s = 0.0
    normals = 0
    job_s = 0.0
    proposals = accepts = 0
    per_width = defaultdict(lambda: [0, 0.0, 0])  # proposals, seconds, function mode
    sweep_s = defaultdict(float)
    for s in spans:
        name, dur = s[NAME], s[END] - s[START]
        if name == JOB_SPAN:
            job_s += dur
            continue
        layer = layer_of(name)
        parent = name_of.get(s[PARENT], JOB_SPAN)
        self_s[layer] += own[s[SID]]
        calls[name] += 1
        time_in[name] += dur
        if layer_of(parent) != layer:
            busy_s[layer] += dur
            entries[layer] += 1
        if name in _FACTOR and parent not in _FACTOR:
            factor_s += dur
        if s[NOTE] is None:
            continue
        if name == "numkit.GaussianStream.normal":
            normals += s[NOTE]
        elif name == "sampler.rejection_sample":
            width, n_prop, n_acc, mode = s[NOTE]
            proposals += n_prop
            accepts += n_acc
            row = per_width[width]
            row[0] += n_prop
            row[1] += dur
            row[2] = int(mode == "function")
        elif name == "experiments.width_sweep":
            sweep_s[s[NOTE]] += dur

    def per_job(x):
        return x / jobs

    out = {
        "numkit.streams": (per_job(calls["numkit.GaussianStream.__init__"]), "count"),
        "numkit.stream_init_s": (per_job(time_in["numkit.GaussianStream.__init__"]), "s"),
        "numkit.normals": (per_job(normals), "count"),
        "numkit.normal_s": (per_job(time_in["numkit.GaussianStream.normal"]), "s"),
        "numkit.factor_s": (per_job(factor_s), "s"),
        "network.self_s": (per_job(self_s["network"]), "s"),
        "likelihood.calls": (per_job(entries["likelihood"]), "count"),
        "likelihood.busy_s": (per_job(busy_s["likelihood"]), "s"),
        "sampler.self_s": (per_job(self_s["sampler"]), "s"),
        "sampler.accumulate_calls": (per_job(calls["sampler.MomentAccumulator.update"]), "count"),
        "sampler.accumulate_s": (per_job(time_in["sampler.MomentAccumulator.update"]), "s"),
        "sampler.merges": (per_job(calls["sampler.MomentAccumulator.merge_in"]), "count"),
        "sampler.accept_ratio": (accepts / proposals if proposals else 0.0, "ratio"),
    }
    for w in SWEEP_WIDTHS:
        n_prop, secs, function_mode = per_width.get(w, (0, 0.0, 0))
        out[f"sampler.w{w}.proposals_per_s"] = (n_prop / secs if secs else 0.0, "1/s")
        out[f"sampler.w{w}.function_mode"] = (function_mode, "flag")
    parallel = [k for k in sweep_s if k > 1 and k <= nproc]
    speedup = (sweep_s[1] / sweep_s[max(parallel)]) if sweep_s.get(1) and parallel else 0.0
    out["sampler.parallel_speedup"] = (speedup, "ratio")
    out["kernels.busy_s"] = (per_job(busy_s["kernels"]), "s")
    out["experiments.self_s"] = (per_job(self_s["experiments"]), "s")
    out["metrics.busy_s"] = (per_job(busy_s["metrics"]), "s")
    out["linreg.self_s"] = (per_job(self_s["linreg"]), "s")
    out["trace.job_s"] = (per_job(job_s), "s")
    return out
