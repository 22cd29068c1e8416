"""Benchmark of the algebroids package.

    python3 bench/run.py --workload {identity_batch,solve,cli_check}
                         --seed N --seconds S --trace {0,1}

One process, one thread, a closed loop: each job starts when the previous
one has ended.  The run makes whole passes over the workload's fixed job
list, in an order drawn from the seed, until ``--seconds`` have gone by
and at least three passes are done.  Only the package call of each job is
timed.  After every ``reference.EVERY_S`` seconds of jobs, one chunk of
``reference`` work is timed as well, and each pass's times are scaled to
the reference speed by the median chunk of that pass, so that the shared
host's drifting speed cancels out.  The first pass checks nothing, so that
the peak memory read after it is the package's own; the second pass checks
every output (see ``workloads`` and ``oracle``); every pass after the first
must reproduce the first pass's serialized outputs exactly; then every
check is fed planted wrong answers and must reject them.  ``--seconds``
defaults to the ``run_seconds`` of BENCHMARK.json.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer counters of ``tracing``, and the trace goes to
``bench/results/``.  Errors found by the checks go to standard error.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import reference
import source

WORKLOADS = ("identity_batch", "solve", "cli_check")
SETUP_PROBES = 11


def measure_setup(workload: str) -> float:
    """Median of several set-ups, each in a fresh interpreter and scaled to
    the reference speed by a chunk timed in that interpreter."""
    probe = source.ROOT / "bench" / "setup_probe.py"
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(probe), workload],
            capture_output=True, text=True, timeout=120, check=True,
        )
        elapsed, chunk = map(float, proc.stdout.split()[-2:])
        times.append(elapsed * reference.NOMINAL_S / chunk)
    return statistics.median(times)


def run_seconds() -> int:
    with open(source.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)["run_seconds"]


def run(args) -> dict:
    import workloads

    errors: list[str] = []
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    with tempfile.TemporaryDirectory(dir=source.RESULTS) as workdir:
        jobs = workloads.build(args.workload, workdir)
        if tracer:
            tracer.install()
        rng = random.Random(args.seed)
        # the first job of each kind, in list order, keeps its result for
        # the planted wrong answers
        planted_jobs = {}
        for job in jobs:
            planted_jobs.setdefault(job.kind, job)
        kept: dict[str, object] = {}
        outputs: dict[str, dict] = {}
        pass_walls, pass_cpus, speeds = [], [], []
        job_walls: dict[str, list[float]] = {job.name: [] for job in jobs}
        attempted = failed = passes = 0
        answer_terms = None
        gc.collect()
        start = time.perf_counter()
        # at least three passes, so that each job's median has three samples
        while passes < 3 or time.perf_counter() - start < args.seconds:
            pass_terms = 0
            pass_wall = pass_cpu = since_chunk = 0.0
            pass_jobs, chunks = {}, []
            for job in rng.sample(jobs, len(jobs)):
                if tracer:
                    tracer.job = job.name
                    tracer.active = True
                attempted += 1
                # start each job from a collected heap, so that no job is
                # billed for a collection of the previous jobs' garbage
                gc.collect()
                c0 = time.process_time()
                w0 = time.perf_counter()
                raised = None
                try:
                    result = job.run()
                except Exception:  # a job that raises is a failed job; keep going
                    raised = traceback.format_exc()
                finally:
                    if tracer:
                        tracer.active = False
                pass_jobs[job.name] = time.perf_counter() - w0
                pass_cpu += time.process_time() - c0
                pass_wall += pass_jobs[job.name]
                # one chunk per EVERY_S of job time, so a long job weighs in
                # the pass's median chunk by its length
                since_chunk += pass_jobs[job.name]
                while since_chunk >= reference.EVERY_S:
                    chunks.append(reference.chunk())
                    since_chunk -= reference.EVERY_S
                if raised:
                    failed += 1
                    errors.append(f"{job.name} raised:\n{raised}")
                    continue
                out = job.serialize(result)
                failed += job.failed(out)
                pass_terms += job.terms(out)
                if passes == 0:
                    outputs[job.name] = out
                    continue
                if out != outputs.get(job.name):
                    errors.append(f"{job.name}: output differs from the first pass")
                if passes == 1:
                    errors += [f"{job.name}: {e}" for e in job.check(result, out, rng)]
                    if planted_jobs[job.kind] is job:
                        kept[job.kind] = (result, out)
            if answer_terms is not None and pass_terms != answer_terms:
                errors.append("answer terms differ between passes")
            answer_terms = pass_terms
            # times scaled to the reference speed of this pass
            speed = reference.NOMINAL_S / statistics.median(chunks or [reference.chunk()])
            speeds.append(speed)
            pass_walls.append(pass_wall * speed)
            pass_cpus.append(pass_cpu * speed)
            for name, t in pass_jobs.items():
                job_walls[name].append(t * speed)
            if passes == 0:
                # the first pass runs no checks and keeps only serialized
                # outputs, so this is the package's own peak
                peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            passes += 1
            gc.collect()
        wall = time.perf_counter() - start
        for kind, job in planted_jobs.items():
            if kind in kept:
                missed = job.planted(*kept[kind], rng)
                errors += [f"{job.name}: planted wrong answer accepted: {m}" for m in missed]

    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    if tracer:
        path = source.RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
        header = {
            "workload": args.workload, "seed": args.seed, "passes": passes,
            "jobs_per_s": len(jobs) / statistics.median(pass_walls),
            "cpu_s": statistics.median(pass_cpus),
            "speed": speeds,
            "wall_s": wall,
            "job_s": {name: statistics.median(t) for name, t in sorted(job_walls.items())},
        }
        tracer.dump(path, header, passes)
        metrics = tracer.metrics(passes)
    else:
        metrics = {
            "setup_s": (measure_setup(args.workload), "s"),
            "jobs_per_s": (len(jobs) / statistics.median(pass_walls), "1/s"),
            "cpu_s": (statistics.median(pass_cpus), "s"),
            "job_p50_s": (statistics.median(map(statistics.median, job_walls.values())), "s"),
            "peak_rss_mb": (peak_rss, "MB"),
            "answer_terms": (answer_terms, "terms"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        print(f"pass speeds (reference scale): {[round(x, 4) for x in speeds]}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    source.import_package()
    source.RESULTS.mkdir(parents=True, exist_ok=True)
    print(json.dumps(run(args)))


if __name__ == "__main__":
    main()
