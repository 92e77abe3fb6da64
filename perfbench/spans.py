"""Outside-in tracing of rocinfer: spans around calls into each module.

The estimator modules and the CLI bind the functions they use at import
(`from .mixtures import mixture_quantile`), so the wrappers are installed
in those consumer namespaces (`rocinfer.pooled.mixture_quantile`,
`rocinfer.conditional.fit_ddp`, `rocinfer.cli.pooled_dpm`, ...), not in
the defining module. `smoothing.lscv_bandwidth` is also wrapped inside
`smoothing`, where `fit_location_scale` calls it. Each span records
(name, start, end, parent span, request) in memory, where the
request names the analysis the span belongs to; `write` saves
them and `uninstall` puts every original function back.

A span's name is its group, `<layer>.<part>` or just `<layer>`. Calls
made inside one span are its children, so nested time can be told
apart: `busy` sums the outermost spans of a group, `self` subtracts the
children's time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

import numpy as np

CONSUMERS = ("cli", "pooled", "conditional", "adjusted")
INTRA_MODULE = {"smoothing": ("lscv_bandwidth",)}

GROUPS = {
    "fit_dpm": "mixtures.fit",
    "fit_ddp": "mixtures.fit",
    "mixture_quantile": "mixtures.quantile",
    "mixture_cdf": "mixtures.eval",
    "mixture_pdf": "mixtures.eval",
    "loglik_at_posterior_mean": "mixtures.eval",
    "kernel_cdf": "smoothing.kernel_cdf",
    "lscv_bandwidth": "smoothing.bandwidth",
    "silverman_bandwidth": "smoothing.bandwidth",
    "fit_location_scale": "smoothing.locfit",
    "invert_cdf": "summaries.invert",
    "roc_curve": "summaries.invert",
    "tnf_curve": "summaries.invert",
    "simpson": "summaries.areas",
    "mw_auc": "summaries.areas",
    "mixture_auc_closed": "summaries.areas",
    "pauc_from_placements": "summaries.areas",
    "pauc_normalise": "summaries.areas",
    "placements_half": "summaries.areas",
    "odd_grid": "summaries.areas",
    "ecdf_eval": "summaries.ecdf",
    "ecdf_quantile": "summaries.ecdf",
    "weighted_ecdf_eval": "summaries.ecdf",
    "weighted_ecdf_quantile": "summaries.ecdf",
    "youden": "summaries.youden",
    "youden_grid": "summaries.youden",
    "youden_rows": "summaries.youden",
    "band": "summaries.band",
    "interval_from": "summaries.band",
    "parallel_map": "streams.map",
    "dirichlet": "streams.dirichlet",
}

# Work counts recorded with a span: f(args, kwargs, result) -> number.
COUNTS = {
    "mixture_quantile": lambda a, k, out: out.size,
    "kernel_cdf": lambda a, k, out: np.size(a[0]) * np.size(a[1]),
}


class Tracer:
    """Spans and MCMC chain records of one traced run."""

    def __init__(self):
        self.spans = []    # (name, start, end, parent, request) by span id
        self.counts = {}   # span id -> work count
        self.chains = []   # (sampler, sweeps, seconds, summed log-lik per draw)
        self.request = ""  # set by the client before each analysis
        self._stack = []
        self._patched = []
        self._t0 = perf_counter()

    def wrap(self, name: str, fn, count=None):
        """fn recorded as a span called `name`."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[sid] = (name, start, end, parent, self.request)
            if count is not None:
                self.counts[sid] = count(args, kwargs, out)
            if name == "mixtures.fit":
                m = out.mcmc
                self.chains.append((fn.__name__, m.nburn + m.nsave * m.nskip, end - start,
                                    out.loglik.sum(axis=1)))
            return out

        return traced

    def _wrap_map(self, fn, layer: str):
        """parallel_map, with each item's call as a `<layer>.replicate` span."""
        traced_map = self.wrap("streams.map", fn, lambda a, k, out: len(out))

        @functools.wraps(fn)
        def mapped(func, items, *args, **kwargs):
            return traced_map(self.wrap(layer + ".replicate", func), items, *args, **kwargs)

        return mapped

    def install(self):
        """Replace the traced functions by wrappers; `uninstall` undoes it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets = []
        for short in CONSUMERS:
            mod = importlib.import_module("rocinfer." + short)
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__.startswith("rocinfer.")
                        and obj.__module__ != mod.__name__):
                    targets.append((mod, name, obj, short))
        for short, names in INTRA_MODULE.items():
            mod = importlib.import_module("rocinfer." + short)
            targets += [(mod, name, getattr(mod, name), short) for name in names]
        for mod, name, obj, consumer in targets:
            if name == "parallel_map":
                wrapped = self._wrap_map(obj, consumer)
            else:
                group = GROUPS.get(name, obj.__module__.rsplit(".", 1)[-1])
                wrapped = self.wrap(group, obj, COUNTS.get(name))
            setattr(mod, name, wrapped)
            self._patched.append((mod, name, obj))

    def uninstall(self):
        while self._patched:
            mod, name, obj = self._patched.pop()
            setattr(mod, name, obj)

    def write(self, path: str):
        """Save all spans as CSV, times in seconds from tracer creation."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,request,count\n")
            for sid, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write("%d,%s,%.7f,%.7f,%d,%s,%d\n" % (
                    sid, name, start - self._t0, end - self._t0, parent, request,
                    self.counts.get(sid, 0)))

    def layer_metrics(self, first_span: int, first_chain: int, ess):
        """Per-layer metrics of the spans and chains recorded since the marks.

        `ess` is the effective-sample-size function applied to each
        chain's summed log-likelihood. Returns the metrics and, by layer,
        the time in its outermost spans and its span count.
        """
        spans = self.spans[first_span:]
        names = [s[0] for s in spans]
        parents = [s[3] - first_span if s[3] >= 0 else -1 for s in spans]
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        layers = [name.split(".", 1)[0] for name in names]
        busy, calls, work = {}, {}, {}
        layer_busy, layer_calls, self_time = {}, {}, {}
        for i, name in enumerate(names):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
            calls[name] = calls.get(name, 0) + 1
            work[name] = work.get(name, 0) + self.counts.get(first_span + i, 0)
            layer_calls[layers[i]] = layer_calls.get(layers[i], 0) + 1
            if not self._inside(i, names, parents):
                busy[name] = busy.get(name, 0.0) + dur[i]
            if not self._inside(i, layers, parents):
                layer_busy[layers[i]] = layer_busy.get(layers[i], 0.0) + dur[i]
        for i, layer in enumerate(layers):
            self_time[layer] = self_time.get(layer, 0.0) + dur[i] - child[i]

        chains = self.chains[first_chain:]
        sweeps = {s: sum(c[1] for c in chains if c[0] == s) for s in ("fit_dpm", "fit_ddp")}
        fit_s = {s: sum(c[2] for c in chains if c[0] == s) for s in ("fit_dpm", "fit_ddp")}
        chain_ess = [ess(c[3]) for c in chains]
        worst = min(range(len(chains)), key=chain_ess.__getitem__) if chains else None
        elements = work.get("mixtures.quantile", 0)
        metrics = {
            "mixtures.quantile.busy_s": busy.get("mixtures.quantile", 0.0),
            "mixtures.quantile.elements": elements,
            "mixtures.quantile.us_per_element":
                1e6 * busy.get("mixtures.quantile", 0.0) / elements if elements else 0.0,
            "mixtures.fit.busy_s": busy.get("mixtures.fit", 0.0),
            "mixtures.sweeps": sweeps["fit_dpm"] + sweeps["fit_ddp"],
            "mixtures.dpm_ms_per_sweep":
                1e3 * fit_s["fit_dpm"] / sweeps["fit_dpm"] if sweeps["fit_dpm"] else 0.0,
            "mixtures.ddp_ms_per_sweep":
                1e3 * fit_s["fit_ddp"] / sweeps["fit_ddp"] if sweeps["fit_ddp"] else 0.0,
            "mixtures.ess_loglik": chain_ess[worst] if chains else 0.0,
            "mixtures.ess_per_s": chain_ess[worst] / chains[worst][2] if chains else 0.0,
            "mixtures.eval.busy_s": busy.get("mixtures.eval", 0.0),
            "smoothing.kernel_cdf.busy_s": busy.get("smoothing.kernel_cdf", 0.0),
            "smoothing.kernel_cdf.evals": work.get("smoothing.kernel_cdf", 0),
            "smoothing.bandwidth.busy_s": busy.get("smoothing.bandwidth", 0.0),
            "smoothing.locfit.busy_s": busy.get("smoothing.locfit", 0.0),
            "summaries.invert.busy_s": busy.get("summaries.invert", 0.0),
            "summaries.invert.calls": calls.get("summaries.invert", 0),
            "summaries.areas.busy_s": busy.get("summaries.areas", 0.0),
            "summaries.ecdf.busy_s": busy.get("summaries.ecdf", 0.0),
            "summaries.youden.busy_s": busy.get("summaries.youden", 0.0),
            "summaries.band.busy_s": busy.get("summaries.band", 0.0),
            "streams.replicates": work.get("streams.map", 0),
            "streams.map.busy_s": busy.get("streams.map", 0.0),
            "streams.dirichlet.busy_s": busy.get("streams.dirichlet", 0.0),
            "design.busy_s": busy.get("design", 0.0),
            "design.calls": calls.get("design", 0),
            "ingest.busy_s": busy.get("ingest", 0.0),
            "sample.busy_s": busy.get("sample", 0.0),
            "diagnostics.busy_s": busy.get("diagnostics", 0.0),
            "pooled.self_s": self_time.get("pooled", 0.0),
            "conditional.self_s": self_time.get("conditional", 0.0),
            "adjusted.self_s": self_time.get("adjusted", 0.0),
            "cli.self_s": self_time.get("cli", 0.0),
        }
        return metrics, {"busy_s": layer_busy, "spans": layer_calls}

    @staticmethod
    def _inside(i, keys, parents) -> bool:
        """Whether span i has an ancestor with the same key."""
        p = parents[i]
        while p >= 0 and keys[p] != keys[i]:
            p = parents[p]
        return p >= 0
