"""rocinfer benchmark: four CLI workloads timed end to end, plus a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports `rocinfer` from
`src/` and writes only under `.perfbench_runs/`. One client in one
process calls `rocinfer.cli.run(RunConfig(...), echo=False)` back to
back (a closed loop), with `workers=1` and BLAS pinned to one thread.
A pass is one call of every analysis of the workload (workloads.py);
passes repeat until `--seconds` have gone by. Every call writes its
envelope and curves CSV, and every output is checked (checks.py).

The host's speed drifts by up to 40% for seconds to minutes at a time
(other tenants share its cores), and CPU time drifts with it, each CPU
on its own. So the benchmark pins itself to one CPU and gives the times
below in reference seconds: each measured interval is scaled by
REFERENCE_S / the median time of a fixed calibration task (plain Python
and numpy, no rocinfer code) run on that CPU just before and just after
it and, in timed passes, every SAMPLE_EVERY_S seconds inside it on a
timer signal, whose own time is left out of the interval. A change to
rocinfer moves the interval, not the calibration. The unscaled times
are in the details line.

`--trace 0` prints the end-to-end metrics, all measured untraced:
  setup_s      median over separate processes of the time from process
               start to the first timed analysis: importing rocinfer,
               writing the study and newdata CSVs, and one tiny warm-up
               analysis per case; calibrated before the process starts
               and in it after its set-up
  wall_s       median seconds of one pass, the sum of its analyses' times
  peak_rss_mb  peak resident memory of the benchmark process
  ok_frac      share of distinct analyses (the workload's cases plus the
               known-defect probe) that succeeded and passed every check

`--trace 1` alternates untraced and traced passes and prints the
per-layer metrics: per-case medians of the untraced passes (reference
seconds), named `<subcommand>.<method>_s` (0 for a case the workload
does not run), and medians over traced passes of the span metrics of
spans.py (unscaled). A layer a workload does not reach reads 0. Spans
are written to `.perfbench_runs/spans-<workload>-seed<N>.csv`.

The line before the result is a JSON record of the run: per-case times,
unscaled wall and set-up times, the wall-time percentile and sample
count, the calibration times, probe outcomes, input hashes and the
software and machine it ran on.
"""

from __future__ import annotations

import os

BLAS_THREADS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}
os.environ.update(BLAS_THREADS)  # before numpy is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import checks  # noqa: E402
import numpy as np  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
EXPECTED_SHA = HERE / "inputs_sha256.json"
DEFAULT_SEED = 2026
SETUP_SAMPLES = 3
# Calibration task time at which one second is one reference second:
# about the median the task takes, warm, on a 2-vCPU x86-64 host.
REFERENCE_S = 0.013
# Seconds between calibration samples taken inside an analysis.
SAMPLE_EVERY_S = 0.5

UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac",
         "mixtures.quantile.elements": "count", "mixtures.quantile.us_per_element": "us",
         "mixtures.sweeps": "count", "mixtures.dpm_ms_per_sweep": "ms",
         "mixtures.ddp_ms_per_sweep": "ms", "mixtures.ess_loglik": "draws",
         "mixtures.ess_per_s": "1/s", "smoothing.kernel_cdf.evals": "count",
         "summaries.invert.calls": "count", "streams.replicates": "count",
         "design.calls": "count", "cli.envelope_bytes": "bytes", "cli.csv_bytes": "bytes",
         "trace.overhead_frac": "frac"}


def _unit(name: str) -> str:
    return UNITS.get(name, "s")


_CAL_X = np.random.default_rng(1).standard_normal(2000)
# n-by-n buffers, allocated once so that samples taken inside an analysis
# neither fault in fresh pages nor add to its peak memory
_CAL_N = 1000
_CAL_D = np.empty((_CAL_N, _CAL_N))
_CAL_W = np.empty((_CAL_N, _CAL_N))


def _calibration_task() -> float:
    """Seconds of a fixed task like the workloads' hot loops: interpreter
    loops, numpy calls on small arrays, and passes over n-by-n arrays."""
    x, d, w = _CAL_X, _CAL_D, _CAL_W
    start = perf_counter()
    acc = 0.0
    for i in range(15000):
        acc += (i % 7) * 0.5
    for _ in range(20):
        y = np.sort(x)
        np.searchsorted(y, x)
        np.exp(-0.5 * x * x).sum()
    counts = {}
    for i in range(2500):
        counts[i % 97] = counts.get(i % 97, 0) + 1
    np.subtract(x[:_CAL_N, None], x[None, :_CAL_N], out=d)
    np.multiply(d, d, out=w)
    w *= -0.5 / 0.4 ** 2
    np.exp(w, out=w)
    w *= d
    w.sum(axis=1)
    return perf_counter() - start


def speed() -> float:
    """Median of three calibration task times: the host's current slowness.
    A SpeedSampler's timer samples wait until it returns."""
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        return statistics.median(_calibration_task() for _ in range(3))
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})


class SpeedSampler:
    """While entered, runs the calibration task every SAMPLE_EVERY_S seconds
    on a timer signal, so that a long analysis gets speed samples from
    inside it. `paused` sums the seconds the samples took."""

    def __init__(self):
        self.samples, self.paused, self._previous = [], 0.0, None

    def _tick(self, signum, frame):
        start = perf_counter()
        self.samples.append(_calibration_task())
        self.paused += perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small study and chains, for the smoke tests")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print 'ready' and the calibration time, and exit "
                         "(one setup_s sample)")
    return ap.parse_args(argv)


def _import_rocinfer():
    """Import rocinfer from this checkout's src/, or None if it is absent."""
    if not (SRC / "rocinfer" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import rocinfer

    if Path(rocinfer.__file__).resolve().parent != SRC / "rocinfer":
        return None
    return rocinfer


class Client:
    """Runs and checks the analyses of one workload on one seed's inputs."""

    def __init__(self, workload: str, seed: int, tiny: bool, directory: str):
        from rocinfer import cli

        self.cli = cli
        self.seed = seed
        self.mode = "tiny" if tiny else "full"
        self.cases = workloads.WORKLOADS[workload]
        self.dir = directory
        self.inputs = workloads.make_inputs(
            seed, directory, workloads.TINY_ROWS if tiny else workloads.N_ROWS)
        self.mw_auc = checks.mann_whitney_auc(self.inputs.healthy, self.inputs.diseased)
        self.warmup_problems = []
        for case in self.cases:
            _, problems = self.run_case(case, "tiny" if tiny else "warmup")
            self.warmup_problems += ["warm-up %s: %s" % (case.name, p) for p in problems]

    def run_case(self, case, mode=None, run=None, sampler=None):
        """(seconds in cli.run, problems) of one analysis; the seconds leave
        out the time of `sampler`'s samples."""
        from rocinfer.errors import RocinferError

        def clock():
            return perf_counter() - (sampler.paused if sampler else 0.0)

        cfg = workloads.run_config(case, self.inputs, self.dir, self.seed, mode or self.mode)
        run = run or self.cli.run
        start = clock()
        try:
            run(cfg, echo=False)
        except RocinferError as exc:
            return clock() - start, ["exit %d: %s" % (exc.exit_code, exc)]
        except Exception as exc:  # noqa: BLE001 - a crash is a failed analysis
            return clock() - start, ["raised %s: %s" % (type(exc).__name__, exc)]
        seconds = clock() - start
        return seconds, checks.check_analysis(cfg, self.mw_auc)

    def one_pass(self, tracer=None) -> dict:
        """Run every case once; `times` are raw, `ref_times` in reference
        seconds. Each analysis is scaled by the median calibration time of
        the samples before, inside (untraced passes only) and after it."""
        run = None
        sampler = SpeedSampler() if tracer is None else None
        if tracer is not None:
            run = tracer.wrap("cli.run", self.cli.run)
            tracer.install()
        times, ref_times, problems, env_bytes, csv_bytes = {}, {}, {}, 0, 0
        speeds = [speed()]
        try:
            with sampler or contextlib.nullcontext():
                for case in self.cases:
                    if tracer is not None:
                        tracer.request = "%d:%s" % (len(tracer.spans), case.name)
                    first = len(sampler.samples) if sampler else 0
                    times[case.name], problems[case.name] = self.run_case(
                        case, run=run, sampler=sampler)
                    around = [speeds[-1], *(sampler.samples[first:] if sampler else []), speed()]
                    speeds += around[1:]
                    ref_times[case.name] = (times[case.name] * REFERENCE_S
                                            / statistics.median(around))
                    stem = os.path.join(self.dir, case.name)
                    env_bytes += _size(stem + ".json")
                    csv_bytes += _size(stem + ".csv")
        finally:
            if tracer is not None:
                tracer.uninstall()
        return {"times": times, "wall": sum(times.values()), "ref_times": ref_times,
                "ref_wall": sum(ref_times.values()), "speeds": speeds, "problems": problems,
                "envelope_bytes": env_bytes, "csv_bytes": csv_bytes}

    def probe(self) -> dict:
        """Run the README's aroc commands untimed; name -> exit code and message."""
        out = {}
        for case in workloads.PROBES:
            argv = workloads.probe_argv(case, self.inputs, self.dir, self.seed)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
            out[case.name] = {"exit": code, "message": err.getvalue().strip()}
        return out


def _size(path: str) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _setup_sample(args) -> tuple:
    """(raw, reference) seconds from spawning a set-up-only process to its
    'ready' line; the calibration runs before the spawn and in the child
    after its set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    before = speed()
    start = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        seconds = perf_counter() - start
        after = proc.stdout.read().split()
    if line.strip() != "ready" or len(after) != 1 or proc.returncode != 0:
        raise RuntimeError("set-up process failed (exit %s)" % proc.returncode)
    return seconds, seconds * REFERENCE_S * 2 / (before + float(after[0]))


def _tail_percentile(samples):
    """(label, value) of the highest percentile with >= 10 samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return None, None
    return "p%d" % (100 * (n - 10) // n), xs[n - 11]


def _median_by_key(rows: list) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]} if rows else {}


def _environment(sha: dict) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    with contextlib.suppress(OSError):
        ref = head.read_text().strip()
        commit = (ROOT / ".git" / ref[5:]).read_text().strip() if ref.startswith("ref: ") else ref
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu,
            "git_commit": commit, "blas_threads": BLAS_THREADS, "inputs_sha256": sha}


def _hash_problems(args, sha: dict) -> list:
    """Inputs of the default seed must match the recorded hashes."""
    if args.tiny or args.seed != DEFAULT_SEED:
        return []
    expected = json.loads(EXPECTED_SHA.read_text())
    return ["input %s hash %s, expected %s" % (k, sha.get(k), v)
            for k, v in expected.items() if sha.get(k) != v]


def measure(args, directory: str) -> tuple:
    """Run the workload; returns (result line, details record)."""
    from rocinfer.diagnostics import effective_sample_size

    setup = ([_setup_sample(args) for _ in range(SETUP_SAMPLES)]
             if args.trace == 0 else [])
    client = Client(args.workload, args.seed, args.tiny, directory)

    untraced, traced, layer_rows, layer_busy = [], [], [], []
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    speed()  # the first calibration after set-up runs slow; discard it
    start = perf_counter()
    while (perf_counter() - start < args.seconds or not untraced
           or (tracer is not None and not traced)):
        use_tracer = tracer is not None and len(traced) < len(untraced)
        if use_tracer:
            marks = (len(tracer.spans), len(tracer.chains))
            traced.append(client.one_pass(tracer))
            metrics, by_layer = tracer.layer_metrics(*marks, effective_sample_size)
            layer_rows.append(metrics)
            layer_busy.append(by_layer)
        else:
            untraced.append(client.one_pass())

    case_names = [c.name for c in client.cases]
    problems = {name: probs for p in untraced + traced for name, probs in p["problems"].items()
                if probs}
    hash_problems = _hash_problems(args, client.inputs.sha256)
    if hash_problems:
        problems["inputs"] = hash_problems
    if client.warmup_problems:
        problems["warm-up"] = client.warmup_problems
    attempted = sum(len(p["times"]) for p in untraced + traced)
    n_failed = sum(1 for p in untraced + traced for probs in p["problems"].values() if probs)

    walls = [p["wall"] for p in untraced]
    reported = [p["ref_wall"] for p in untraced]
    case_s = {name: statistics.median(p["ref_times"][name] for p in untraced)
              for name in case_names}
    label, tail = _tail_percentile(reported)
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "passes": len(untraced), "traced_passes": len(traced),
               "case_s": case_s,
               "wall_s": {"median": statistics.median(reported), "tail": label,
                          "tail_s": tail, "samples": reported},
               "raw_wall_s": {"median": statistics.median(walls), "samples": walls},
               "speed_s": [s for p in untraced for s in p["speeds"]],
               "problems": problems}

    if args.trace == 0:
        probes = client.probe()
        setup_s = [ref for _, ref in setup]
        probe_failed = [name for name, r in probes.items() if r["exit"] != 0]
        failed_cases = [name for name in case_names if name in problems]
        failed_frac = (len(failed_cases) + len(probe_failed)) / (len(case_names) + len(probes))
        metrics = {
            "setup_s": statistics.median(setup_s),
            "wall_s": statistics.median(reported),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - failed_frac,
        }
        details.update(setup_samples_s=setup_s, raw_setup_samples_s=[raw for raw, _ in setup],
                       probes=probes, failed_frac=failed_frac)
    else:
        metrics = {"%s_s" % name: 0.0 for name in workloads.CASE_NAMES}
        metrics.update({"%s_s" % name: s for name, s in case_s.items()})
        metrics.update(_median_by_key(layer_rows))
        metrics["cli.envelope_bytes"] = statistics.median(p["envelope_bytes"] for p in untraced)
        metrics["cli.csv_bytes"] = statistics.median(p["csv_bytes"] for p in untraced)
        traced_wall = statistics.median(p["wall"] for p in traced)
        metrics["trace.overhead_frac"] = traced_wall / statistics.median(walls) - 1.0
        layers = sorted({layer for b in layer_busy for layer in b["spans"]})
        details["traced_layers"] = {
            layer: {key: statistics.median(b[key].get(layer, 0) for b in layer_busy)
                    for key in ("busy_s", "spans")}
            for layer in layers}
        details["design_checks"] = workloads.design_checks(
            args.workload, metrics, details["traced_layers"], statistics.median(walls))
        RUNS.mkdir(exist_ok=True)
        tracer.write(str(RUNS / ("spans-%s-seed%d.csv" % (args.workload, args.seed))))

    details["environment"] = _environment(client.inputs.sha256)
    result = {"correct": not problems, "attempted": attempted, "failed": n_failed,
              "metrics": {k: {"value": float(v), "unit": _unit(k)} for k, v in metrics.items()}}
    return result, details


def _pin_to_one_cpu() -> None:
    """Run on one CPU (the highest-numbered allowed one, away from CPU 0's
    interrupts), so that the calibration task measures the CPU the
    analyses run on. Set-up processes inherit the pinning."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = _parse(argv)
    if _import_rocinfer() is None:
        print("perfbench: no rocinfer package under %s; run from a source checkout" % SRC,
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    _pin_to_one_cpu()
    RUNS.mkdir(exist_ok=True)
    directory = tempfile.mkdtemp(prefix="run-", dir=RUNS)
    try:
        if args.setup_only:
            Client(args.workload, args.seed, args.tiny, directory)
            print("ready", flush=True)
            print(repr(speed()), flush=True)
            return 0
        result, details = measure(args, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
