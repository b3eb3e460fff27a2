"""projderiv benchmark: seeded job streams through the CLI layer's entry points.

    python3 bench/run.py --workload verify_dense --seed 1 --seconds 25 --trace 0

Run from the repository root; the program is imported from ./src.  One
process, one caller, closed loop: the next job starts when the previous
run_job returns.  BLAS threads are pinned to 1.

--trace 0 prints the end-to-end metrics (setup_s, jobs_per_s, job_p50_ms,
job_p99_ms, cli_job_p50_s, ops_failed_frac), every timing scaled to a
reference speed of the machine measured during the run (calibrate.py).
--trace 1 prints the per-layer metrics from a traced run (see tracing.py).  The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import os

# Before numpy is imported, here and in every child interpreter.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, digest, generate  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p99_ms", "ms"),
    ("cli_job_p50_s", "s"),
    ("ops_failed_frac", "ratio"),
)

# Job seconds between two timings of calibrate.reference_work in the job loop.
REF_EVERY_S = 0.002

# Run-size settings per --size: fresh interpreters timed for setup_s and for
# the importtime split, jobs run as CLI subprocesses and how often each, the
# fewest passes over the job list (each job's latency is a mean over them), and
# the stride of the job subset the traced run covers (every job whose
# creation index is a multiple of it; verify_dense jobs emit ~1600 spans
# each).
SIZES = {
    "full": {"setup_runs": 9, "importtime_runs": 5, "cli_jobs": 7, "cli_repeats": 2, "min_passes": 5,
             "trace_stride": {"verify_dense": 2, "closed_forms": 1, "seq_certificates": 1}},
    "tiny": {"setup_runs": 2, "importtime_runs": 2, "cli_jobs": 2, "cli_repeats": 1, "min_passes": 1,
             "trace_stride": {"verify_dense": 1, "closed_forms": 1, "seq_certificates": 1}},
}


def pin_to_one_cpu() -> None:
    """Run this process and its children on the last CPU they may use.

    Otherwise the scheduler moves the job loop between CPUs and onto the one
    other processes are using, which makes the timings drift more."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def child_env() -> dict[str, str]:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def time_child(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120)
    return perf_counter() - t0, proc


def time_child_scaled(argv: list[str]) -> tuple[float, float, subprocess.CompletedProcess]:
    """(scaled seconds, seconds, process) of a child interpreter, scaled by
    the reference interpreter run just before it (see calibrate.py)."""
    ref, _ = time_child([sys.executable, "-c", calibrate.REF_INTERPRETER])
    t, proc = time_child(argv)
    return t * calibrate.REF_INTERPRETER_S / ref, t, proc


# ------------------------------------------------------------------- set-up


def time_import() -> tuple[float, float]:
    """(scaled, unscaled) wall time of a fresh interpreter running `import projderiv.cli`."""
    scaled, t, proc = time_child_scaled([sys.executable, "-c", "import projderiv.cli"])
    if proc.returncode != 0:
        raise RuntimeError(f"import projderiv.cli failed: {proc.stderr.strip()}")
    return scaled, t


def measure_importtime(runs: int) -> tuple[float, float]:
    """Median (numpy, rest of projderiv) cumulative import seconds from -X importtime."""
    numpy_s, own_s = [], []
    for _ in range(runs):
        _, proc = time_child([sys.executable, "-X", "importtime", "-c", "import projderiv.cli"])
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and line.startswith("import time:") and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
        numpy_s.append(cumulative["numpy"])
        # projderiv.cli's cumulative time includes the package and numpy
        own_s.append(cumulative["projderiv.cli"] - cumulative["numpy"])
    return statistics.median(numpy_s), statistics.median(own_s)


def write_jobs(jobs, directory: Path) -> list[Path]:
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    paths = []
    for i, job in enumerate(jobs):
        path = directory / f"{i:05d}.json"
        path.write_text(json.dumps(job.spec))
        paths.append(path)
    return paths


def environment(workload: str, seed: int, size: str) -> dict:
    counts, digests = {}, {}
    for name in WORKLOADS:
        jobs = generate(name, seed, size)
        counts[name], digests[name] = len(jobs), digest(jobs)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "workload": workload,
        "seed": seed,
        "size": size,
        "job_counts": counts,
        "job_digests": digests,
    }


# ----------------------------------------------------------------- job loop


def run_one(cli, path: str):
    """(seconds, outcome) for load_job + run_job + report formatting."""
    t0 = perf_counter()
    try:
        lines, ok = cli.run_job(cli.load_job(path))
        report = "\n".join(lines) + "\n"
        outcome = ("report", lines, ok, report)
    except cli.JobError as e:
        outcome = ("job_error", str(e))
    except Exception as e:  # the benchmark must outlive any program failure
        outcome = ("exception", type(e).__name__)
    return perf_counter() - t0, outcome


def run_passes(cli, paths, seconds: float, min_passes: int = 1, tracer=None, probes=()):
    """Whole passes over the job list until there are min_passes passes and
    the next pass would overrun `seconds` (at least one pass).  Returns
    (per-pass latency arrays, first-pass outcomes, per-pass reference times).

    The reference loop is timed after every REF_EVERY_S of job time, and at
    least once a pass, so each pass carries a sample of the machine's speed
    while it ran.

    `probes` are untimed callables run between jobs, evenly spread over the
    first `seconds` of job time (any left over run at the end), so that they
    sample the same stretch of machine time as the jobs.

    A job whose report differs from its first-pass report fails as
    NondeterministicReport."""
    probes = list(probes)
    interval = seconds / (len(probes) + 1)
    passes, first, refs = [], [], []
    spent = clock = since_ref = 0.0
    while True:
        latencies, pass_refs = [], []
        for i, path in enumerate(paths):
            if tracer is not None:
                tracer.job_id = i
            dt, outcome = run_one(cli, str(path))
            latencies.append(dt)
            clock += dt
            since_ref += dt
            if since_ref >= REF_EVERY_S:
                since_ref = 0.0
                pass_refs.append(calibrate.time_reference())
            if probes and clock >= interval:
                clock -= interval
                probes.pop(0)()
            if not passes:
                first.append(outcome)
            elif outcome[:1] + outcome[3:] != first[i][:1] + first[i][3:]:
                first[i] = ("exception", "NondeterministicReport")
        if not pass_refs:
            pass_refs.append(calibrate.time_reference())
        passes.append(np.array(latencies))
        refs.append(pass_refs)
        spent += float(passes[-1].sum())
        if len(passes) >= min_passes and spent + spent / len(passes) > seconds:
            for probe in probes:
                probe()
            return passes, first, refs


def warm_up(cli, jobs, paths) -> None:
    """Run the first job of every class once, untimed (lazy imports, caches)."""
    seen = set()
    for job, path in zip(jobs, paths):
        if job.group not in seen:
            seen.add(job.group)
            run_one(cli, str(path))


def job_latencies(passes: np.ndarray) -> np.ndarray:
    """Each job's mean over the passes (rows) without its fastest and slowest
    pass, when there are three or more: one pass stretched by an interrupt
    or a garbage collection does not move it."""
    passes = np.sort(passes, axis=0)
    return (passes[1:-1] if len(passes) >= 3 else passes).mean(axis=0)


def spread(*groups):
    """Merge lists so that each one's items lie evenly over the merged list."""
    keyed = [((i + 0.5) / len(g), gi, item) for gi, g in enumerate(groups) for i, item in enumerate(g)]
    return [item for *_, item in sorted(keyed, key=lambda t: t[:2])]


def cli_sample(jobs, paths, count: int):
    """Jobs at evenly spaced creation indices, so every seed samples the same classes."""
    want = {int((i + 0.5) * len(jobs) / count) for i in range(count)}
    return [(k, p) for k, (job, p) in enumerate(zip(jobs, paths)) if job.serial in want]


# -------------------------------------------------------------- two modes


def measure_end_to_end(jobs, paths, seconds: float, size: dict):
    """End-to-end metrics with tracing off.  Returns (metrics, notes,
    first-pass outcomes, whether sampled CLI reports match in-process ones)."""
    metrics, notes, unscaled = {}, {}, {}
    import projderiv.cli as cli

    time_import()  # leaves bytecode caches warm, as after an install
    warm_up(cli, jobs, paths)
    for _ in range(20):
        calibrate.time_reference()
    imports, runs = [], []

    def cli_probe(k, path):
        runs.append((k, *time_child_scaled([sys.executable, "-m", "projderiv.cli", "--job", str(path)])))

    setup_probes = [lambda: imports.append(time_import()) for _ in range(size["setup_runs"])]
    sample = cli_sample(jobs, paths, size["cli_jobs"])
    cli_probes = [functools.partial(cli_probe, k, p) for _ in range(size["cli_repeats"]) for k, p in sample]
    probes = spread(setup_probes, cli_probes)
    passes, outcomes, refs = run_passes(cli, paths, seconds, size["min_passes"], probes=probes)

    # Each pass is scaled by the reference time during it (calibrate.py);
    # the percentiles are over jobs.
    raw = np.array(passes)
    ref_per_pass = np.array([calibrate.typical(r) for r in refs])
    per_job = job_latencies(raw * (calibrate.REF_LOOP_S / ref_per_pass)[:, None])
    per_job_raw = job_latencies(raw)
    for values, out in ((per_job, metrics), (per_job_raw, unscaled)):
        out["jobs_per_s"] = values.size / float(values.sum())
        out["job_p50_ms"] = float(np.percentile(values, 50)) * 1e3
        out["job_p99_ms"] = float(np.percentile(values, 99)) * 1e3
    for key in ("jobs_per_s", "job_p50_ms", "job_p99_ms"):
        notes[key] = f"{len(jobs)} jobs, each its trimmed mean over {len(passes)} passes"
    all_refs = [t for r in refs for t in r]
    notes["reference_loop_ms"] = (
        f"median {statistics.median(all_refs) * 1e3:.4g}, min {min(all_refs) * 1e3:.4g},"
        f" {len(all_refs)} samples; scaled to {calibrate.REF_LOOP_S * 1e3:g}"
    )
    metrics["setup_s"] = statistics.median(scaled for scaled, _ in imports)
    unscaled["setup_s"] = statistics.median(t for _, t in imports)
    notes["setup_s"] = f"median of {len(imports)} fresh interpreters, spread over the run"

    consistent = True
    for k, _, _, proc in runs:
        if outcomes[k][0] == "report":
            exit_code = 0 if outcomes[k][2] else 1
            consistent &= proc.stdout == outcomes[k][3] and proc.returncode == exit_code
        else:
            consistent &= proc.returncode != 0
    metrics["cli_job_p50_s"] = statistics.median(scaled for _, scaled, _, _ in runs)
    unscaled["cli_job_p50_s"] = statistics.median(t for _, _, t, _ in runs)
    notes["cli_job_p50_s"] = (
        f"median of {len(runs)} CLI subprocesses, {len(sample)} jobs x {size['cli_repeats']}, spread over the run"
    )
    for key, value in unscaled.items():
        notes[key] += f"; unscaled {value:.6g}"
    return metrics, notes, outcomes, consistent


def measure_traced(workload: str, jobs, paths, seconds: float, size: dict):
    """Per-layer metrics from traced passes over the jobs, alternating with
    untraced passes over the same jobs for the tracing overhead, so both see
    the same stretch of machine time; pass times are scaled as in the
    untraced run.  Returns (metrics, notes, jobs, first-pass outcomes)."""
    metrics, notes = {}, {}
    metrics["setup.import_numpy_s"], metrics["setup.import_projderiv_s"] = measure_importtime(
        size["importtime_runs"]
    )
    import projderiv.cli as cli

    stride = size["trace_stride"][workload]
    keep = [k for k, job in enumerate(jobs) if job.serial % stride == 0]
    jobs, paths = [jobs[k] for k in keep], [paths[k] for k in keep]
    warm_up(cli, jobs, paths)
    tracer = tracing.Tracer()
    plain, traced, outcomes = [], [], None
    spent = 0.0
    while not plain or spent + spent / len(plain) <= seconds:
        # seconds=0: exactly one pass
        one, first, ref_one = run_passes(cli, paths, 0.0)
        outcomes = outcomes or first
        tracer.install()
        try:
            two, _, ref_two = run_passes(cli, paths, 0.0, tracer=tracer)
        finally:
            tracer.uninstall()
        spent += float(one[0].sum() + two[0].sum())
        plain.append(float(one[0].sum()) * calibrate.REF_LOOP_S / calibrate.typical(ref_one[0]))
        traced.append(float(two[0].sum()) * calibrate.REF_LOOP_S / calibrate.typical(ref_two[0]))
    tracer.write(WORK / f"trace-{workload}.npz")
    plain_per_pass = statistics.median(plain)
    traced_per_pass = statistics.median(traced)
    metrics.update(tracer.metrics(len(traced)))
    metrics["trace.jobs_per_s"] = len(paths) / traced_per_pass
    metrics["trace.overhead_frac"] = traced_per_pass / plain_per_pass - 1.0
    notes["trace.jobs_per_s"] = f"median over {len(traced)} traced passes of {len(paths)} jobs, scaled"
    notes["trace.overhead_frac"] = f"against {len(plain)} untraced passes of the same jobs"
    return metrics, notes, jobs, outcomes


# --------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "projderiv" / "cli.py").is_file():
        print(f"error: no projderiv sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    size = SIZES[args.size]
    pin_to_one_cpu()

    env = environment(args.workload, args.seed, args.size)
    jobs = generate(args.workload, args.seed, args.size)
    paths = write_jobs(jobs, WORK / f"jobs-{args.workload}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} size {args.size}")
    print("env " + json.dumps(env, sort_keys=True))

    if args.trace == 0:
        metrics, notes, outcomes, consistent = measure_end_to_end(jobs, paths, args.seconds, size)
        names = END_TO_END
    else:
        metrics, notes, jobs, outcomes = measure_traced(args.workload, jobs, paths, args.seconds, size)
        consistent, names = True, tracing.metric_names()

    causes = [reference.check(job, outcome[:3]) for job, outcome in zip(jobs, outcomes)]
    failed = [(job, cause) for job, cause in zip(jobs, causes) if cause]
    if args.trace == 0:
        metrics["ops_failed_frac"] = len(failed) / len(jobs)
        notes["ops_failed_frac"] = f"{len(failed)} failed of {len(jobs)} attempted"
    # Known defects count as failures; only a failure outside their classes,
    # or a CLI report that differs from the in-process one, is incorrect.
    correct = consistent and all(job.defect is not None for job, _ in failed)

    breakdown = Counter((job.command, job.set_kind, cause, job.defect or "-") for job, cause in failed)
    for (command, set_kind, cause, defect), n in sorted(breakdown.items()):
        print(f"failures {args.workload} {command} {set_kind} {cause} {n} known_defect={defect}")
    if not consistent:
        print("error: a CLI subprocess report differs from the in-process report")
    result = {
        "correct": correct,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }
    if "reference_loop_ms" in notes:
        print(f"reference loop ms: {notes['reference_loop_ms']}")
    for name, unit in names:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {name} = {metrics[name]!r} {unit}{note}")
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    failures = [[*key, n] for key, n in sorted(breakdown.items())]
    out.write_text(json.dumps({"env": env, "notes": notes, "failures": failures, **result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
