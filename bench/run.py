"""Benchmark of the widebnn exact-posterior lab.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of oracle, sweep, prior-limit, rates, or ``all``, which runs each
workload in its own process and prints one row per workload.

A run builds the program from ``src/`` of the checkout it sits in, times
package import plus input construction in fresh processes, runs one small
untimed warm-up job of every kind and then runs jobs one after another (a
closed loop from one process) until S seconds have passed and at least one
round of every job kind is done. Every job's output is checked. With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced jobs of the same kind and reports per-layer
metrics from the traced ones, plus the tracing overhead. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. Spans of a traced run are written to ``.bench_out/`` at the end.
"""

import os

# One BLAS thread, so that a job uses at most the sampler's own worker
# threads, and never more than nproc. Set before numpy is imported.
BLAS_THREADS = "1"
if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import harness  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
OUT_DIR = workloads.ROOT / ".bench_out"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120

# The seven end-to-end metrics of the table; the JSON line carries the
# workload's own throughput as work_per_s. A throughput is taken at the
# workload's quantile of job seconds (see workloads.py).
TABLE = (("proposals_per_s", "1/s"), ("accepts_per_s", "1/s"), ("draws_per_s", "1/s"),
         ("rate_points_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
         ("error_rate", "1"))


@dataclass
class Job:
    kind: int
    seconds: float
    work: int
    accepts: int
    problems: list = field(default_factory=list)
    raised: bool = False


def run_job(wl, kind: int, j: int, tracer=None) -> Job:
    t0 = perf_counter()
    try:
        if tracer is None:
            work, accepts, out = wl.job(kind, j)
        else:
            with tracer.job(j):
                work, accepts, out = wl.job(kind, j)
    except Exception as exc:  # a job that raises is counted as failed; the run goes on
        traceback.print_exc()
        return Job(kind, perf_counter() - t0, 0, 0, [f"raised {type(exc).__name__}: {exc}"],
                   True)
    seconds = perf_counter() - t0
    return Job(kind, seconds, work, accepts or 0, wl.check(out))


def closed_loop(wl, seconds: float, tracer=None):
    """Run jobs back to back, cycling through the job kinds, until ``seconds``
    have passed and every kind has run; with a tracer, each untraced job is
    followed by a traced job of the same kind. Returns (untraced jobs, traced
    jobs)."""
    plain, traced = [], []
    start = perf_counter()
    i = j = 0
    while i < len(wl.kinds) or perf_counter() - start < seconds:
        kind = i % len(wl.kinds)
        plain.append(run_job(wl, kind, j))
        j += 1
        if tracer is not None:
            tracer.install(sys.modules["widebnn"])
            try:
                traced.append(run_job(wl, kind, j, tracer))
            finally:
                tracer.uninstall()
            j += 1
        i += 1
    return plain, traced


def setup_seconds(name: str, seed: int, probes: int) -> list:
    """Import plus input and reference construction, each in a fresh process."""
    times = []
    for _ in range(probes):
        done = subprocess.run([sys.executable, str(BENCH / "probe_setup.py"), name, str(seed)],
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              cwd=workloads.ROOT, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def git_sha() -> str:
    git = workloads.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(name: str, seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"workload": name, "seed": seed, "nproc": workloads.nproc(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown"), "blas_threads": BLAS_THREADS,
            "git_sha": git_sha()}


def quantile(values, q: float) -> float:
    """The q-quantile of ``values``, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(100 * q) - 1]


def rate(jobs, attr: str, q: float):
    """Work per second of one round of jobs, one of every kind, taking each
    kind's q-quantile of job seconds: the mean work of each kind summed over
    the kinds, over the sum of their q-quantile seconds. Only jobs that
    returned count. Returns (rate, number of jobs)."""
    done = [job for job in jobs if not job.raised]
    kinds = sorted({job.kind for job in done})
    work = seconds = 0.0
    for kind in kinds:
        mine = [job for job in done if job.kind == kind]
        work += statistics.fmean(getattr(job, attr) for job in mine)
        seconds += quantile([job.seconds for job in mine], q)
    return (work / seconds if seconds else 0.0), len(done)


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 out_dir: Path = OUT_DIR, probes: int = SETUP_PROBES) -> dict:
    """Measure one workload; returns the result object plus the table row,
    the kind, seconds and work of every untraced job, and a summary of each
    job kind."""
    cls = workloads.WORKLOADS[name]
    setup = setup_seconds(name, seed, probes)
    workloads.load_program()
    out_dir.mkdir(exist_ok=True)
    warm = cls(seed, tiny=True, out_dir=out_dir)
    for kind in range(len(cls.kinds)):
        try:
            warm.job(kind, 0)
        except Exception:  # the measured jobs report the failure
            traceback.print_exc()
    wl = cls(seed, tiny=tiny, out_dir=out_dir)
    tracer = harness.Tracer() if trace else None
    plain, traced = closed_loop(wl, seconds, tracer)
    jobs = plain + traced

    run_problems = wl.check_run()
    for job in jobs:
        if run_problems and not job.raised:
            job.problems.extend(run_problems)
    for k, job in enumerate(jobs):
        for problem in job.problems:
            print(f"CHECK FAILED {name} job {k}: {problem}", file=sys.stderr)
    failed = sum(1 for job in jobs if job.problems)

    work, n_work = rate(plain, "work", cls.quantile)
    row = {cls.work_name: (work, "1/s", n_work, cls.quantile)}
    if cls.samples:
        accepts, n_accepts = rate(plain, "accepts", cls.quantile)
        row["accepts_per_s"] = (accepts, "1/s", n_accepts, cls.quantile)
    row["setup_s"] = (statistics.median(setup), "s", len(setup))
    row["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    row["error_rate"] = (failed / len(jobs), "1", len(jobs))

    if trace:
        metrics = harness.layer_metrics(tracer.spans, workloads.nproc())
        overhead = [t.seconds - p.seconds for p, t in zip(plain, traced)]
        metrics["trace.overhead_s"] = (statistics.median(overhead), "s")
        tracer.write(out_dir / f"trace-{name}-seed{seed}.tsv.gz")
    else:
        metrics = {"work_per_s": (work, "1/s"), "setup_s": row["setup_s"][:2],
                   "peak_rss_mb": row["peak_rss_mb"][:2]}
    return {"correct": failed == 0, "attempted": len(jobs), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "row": {k: list(v) for k, v in row.items()},
            "jobs": [[job.kind, job.seconds, job.work] for job in plain],
            "kinds": kind_summary(cls.kinds, plain)}


def kind_summary(kinds, jobs) -> dict:
    """Job count and median and 90th-percentile seconds of every job kind."""
    out = {}
    for k, label in enumerate(kinds):
        seconds = [job.seconds for job in jobs if job.kind == k and not job.raised]
        if seconds:
            out[label] = {"n": len(seconds), "p50_s": quantile(seconds, 0.5),
                          "p90_s": quantile(seconds, 0.9)}
    return out


def format_table(rows: dict) -> str:
    """One row per workload; ``n`` is the number of jobs or set-up processes
    behind a value, and a throughput names the quantile of job seconds it is
    taken at."""
    head = ["workload"] + [f"{m} [{u}]" for m, u in TABLE]
    lines = [head]
    for name, row in rows.items():
        cells = [name]
        for metric, _ in TABLE:
            if metric not in row:
                cells.append("-")
            elif metric == "error_rate":
                cells.append(f"{row[metric][0]:.3g} (n={row[metric][2]})")
            elif len(row[metric]) > 3:
                cells.append(f"{row[metric][0]:.6g} (p{round(100 * row[metric][3])}, "
                             f"n={row[metric][2]})")
            else:
                cells.append(f"{row[metric][0]:.6g} (n={row[metric][2]})")
        lines.append(cells)
    widths = [max(len(line[i]) for line in lines) for i in range(len(head))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip()
                     for line in lines)


def format_layers(metrics: dict) -> str:
    job_s = metrics["trace.job_s"]["value"]
    lines = []
    for name, m in metrics.items():
        share = ""
        if m["unit"] == "s" and job_s > 0 and name not in ("trace.job_s", "trace.overhead_s"):
            share = f"  {100.0 * m['value'] / job_s:5.1f}% of trace.job_s"
        lines.append(f"{name:32s} {m['value']:14.6g} {m['unit']:6s}{share}")
    return "\n".join(lines)


def run_all(args) -> int:
    rows, attempted, failed, metrics, correct = {}, 0, 0, {}, True
    for name in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=workloads.ROOT)
        lines = child.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"workload {name} produced no result (exit {child.returncode})",
                  file=sys.stderr)
            correct = False
            continue
        for line in lines:
            if line.startswith("row "):
                rows[name] = json.loads(line[4:])
            elif line.startswith("env "):
                print(line)
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(format_table(rows))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        workloads.load_program()
    except workloads.ProgramMissing as exc:
        print(f"cannot build the program: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    print("env " + json.dumps(environment(args.workload, args.seed)), flush=True)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    row = result.pop("row")
    print("row " + json.dumps(row))
    print("jobs " + json.dumps(result.pop("jobs")))
    print("kinds " + json.dumps(result.pop("kinds")))
    print(format_table({args.workload: row}))
    if args.trace:
        print(format_layers(result["metrics"]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
