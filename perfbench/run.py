"""trustgate benchmark: CLI workloads run in-process through ``parse_and_run``.

Usage, from the root of a trustgate checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 10 --trace 0

Each run sets up (imports trustgate and builds the workload's inputs), then
repeats one round of jobs until ``--seconds`` of job time have passed, checks
every output, and prints one JSON object as the last line of stdout. With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it wraps
the public functions of every trustgate module and reports the per-layer
metrics instead. Metric names and units are read from BENCHMARK.json.

Times in the end-to-end metrics are scaled by the speed of a fixed probe
(``calibrate.py``) sampled while the jobs run, so that the machine's own
drift cancels out; see README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# One job at a time on a 2-core machine: keep numpy's BLAS to one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# Set-up is timed in fresh processes, half before the jobs and half after,
# so that the median spans the run rather than one moment of it.
SETUP_PROBES = 8
SETUP_PROBE_TIMEOUT_S = 30
WALL_LIMIT_S = 150  # no new round starts once a run would pass this
SETUP_PROBE_REPEATS = 25  # calibration probes timed after each set-up sample


def _import_trustgate():
    """Import trustgate from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "trustgate", "cli.py")):
        raise SystemExit(f"perfbench: no trustgate sources under {SRC}")
    sys.path.insert(0, SRC)
    import trustgate.cli

    if not os.path.abspath(trustgate.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported trustgate from {trustgate.cli.__file__}")
    return trustgate.cli


def setup_probe(workload: str, seed: int, workdir: str) -> None:
    """Child process: time importing trustgate and building the inputs.

    Prints the set-up time and, after it, the median time of the
    calibration probe in the same process.
    """
    start = time.perf_counter()
    _import_trustgate()
    import workloads

    workloads.make_round(workload, seed, workdir)
    elapsed = time.perf_counter() - start
    import calibrate

    probe_s = statistics.median(calibrate.probe() for _ in range(SETUP_PROBE_REPEATS))
    print(repr(elapsed), repr(probe_s))


def measure_setup(workload: str, seed: int, probes: int) -> list[tuple[float, float]]:
    """(set-up time, probe time) of ``probes`` fresh processes, one after another."""
    samples = []
    for index in range(probes):
        workdir = os.path.join(OUT_DIR, "work", f"probe-{os.getpid()}-{index}")
        argv = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload]
        argv += ["--seed", str(seed), "--workdir", workdir]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=SETUP_PROBE_TIMEOUT_S, check=False)
        shutil.rmtree(workdir, ignore_errors=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"perfbench: set-up probe exited {done.returncode}")
        elapsed, probe_s = done.stdout.strip().splitlines()[-1].split()
        samples.append((float(elapsed), float(probe_s)))
    return samples


class Runner:
    """Runs jobs through the CLI entry point and checks their outputs."""

    def __init__(self, cli) -> None:
        import checks

        self.cli = cli
        self.checks = checks
        self.sampler = None  # set while untraced rounds run
        self.tracer = None  # set while a traced round runs
        self.errors: list[str] = []
        self.forgetting: dict[str, dict[str, float]] = {}
        self.job_times: list[float] = []
        self.job_spans: list[tuple[float, float]] = []  # per job: wall-clock start and end
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.out_bytes = 0

    def scaled_times(self) -> list[float]:
        """Job times in reference seconds; plain wall seconds when not sampled."""
        if self.sampler is None:
            return list(self.job_times)
        scales = (self.sampler.scale(start, end) for start, end in self.job_spans)
        return [elapsed * scale for elapsed, scale in zip(self.job_times, scales)]

    def sampling_spent(self) -> float:
        return self.sampler.spent if self.sampler is not None else 0.0

    def reset(self) -> None:
        self.job_times.clear()
        self.job_spans.clear()
        self.attempted = self.failed = self.items = self.out_bytes = 0

    def run_job(self, job) -> None:
        stdout, stderr = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.active = True
        spent = self.sampling_spent()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.cli.parse_and_run(job.argv)
        except Exception:  # an uncaught error is a failed command, as it would be on a terminal
            code = None
            stderr.write(traceback.format_exc())
        end = time.perf_counter()
        if self.tracer is not None:
            self.tracer.active = False
        self.job_times.append(end - start - (self.sampling_spent() - spent))
        self.job_spans.append((start, end))
        self.attempted += 1
        if code != 0:
            self.failed += 1
            if code not in (1, None):
                self.errors.append(f"{job.argv}: exit {code}: {stderr.getvalue().strip()}")
            return
        text = stdout.getvalue()
        self.out_bytes += len(text.encode())
        if job.out is not None:
            self.out_bytes += os.path.getsize(job.out)
        try:
            self.items += self.check(job, text)
        except (self.checks.CheckError, IndexError, KeyError, ValueError, TypeError) as exc:
            self.errors.append(f"{job.argv}: {exc!r}")

    def check(self, job, text: str) -> int:
        checks = self.checks
        if job.kind == "verify":
            return checks.check_reports(json.loads(text))
        if job.kind == "landscape":
            summary = json.loads(text)
            checks.require(summary["objective"] == job.objective, "landscape summary objective")
            from workloads import GRID

            return checks.check_landscape(job.out, job.fmt, job.objective, **GRID)
        with open(job.out, encoding="utf-8") as handle:
            record = json.load(handle)
        checks.require(json.loads(text)["quadrants"] == record["quadrants"], "summary quadrants")
        items = checks.check_run_record(record, job)
        if job.task:
            self.forgetting.setdefault(job.task, {})[job.objective] = record["quadrants"]["forgetting"]
        if job.reference:
            self.check_reference(job, record)
        return items

    def check_reference(self, job, record: dict) -> None:
        from trustgate import RegimeSpec, build_task

        cfg = job.config
        spec = RegimeSpec(
            regime=cfg["regime"],
            vocab_size=cfg["vocab_size"],
            num_contexts=cfg["num_contexts"],
            conflict_fraction=cfg["conflict_fraction"],
            conflict_policy=cfg["conflict_policy"],
        )
        task = build_task(spec, cfg["task_seed"])
        expected = self.checks.reference_mean_target_p(
            task.model.logit_table,
            task.labels,
            cfg["objective"],
            cfg["learning_rate"],
            cfg["steps"],
            cfg["batch_size"],
            cfg["seed"],
        )
        gap = max(abs(a - b) for a, b in zip(record["mean_target_p"], expected))
        self.checks.require(gap <= self.checks.TRACE_MATCH_TOL, f"trace differs from reference by {gap:.3e}")

    def finish_round(self) -> None:
        for task, forgetting in self.forgetting.items():
            try:
                self.checks.check_forgetting(forgetting, task)
            except self.checks.CheckError as exc:
                self.errors.append(str(exc))
        self.forgetting.clear()


def falsification_hooks(runner: Runner) -> None:
    """The README's hooks must bite: each breaks exactly its own reports."""
    from trustgate import run_property_suite

    checks = runner.checks
    try:
        checks.check_hook(run_property_suite(7, cayley_kappa=2.0), {"cayley-surprisal-linearization"}, "cayley_kappa=2")
        checks.check_hook(run_property_suite(7, fd_rel_tol=0.0), {"fd-gradient-static", "fd-gradient-dynamic"}, "fd_rel_tol=0")
    except checks.CheckError as exc:
        runner.errors.append(str(exc))


def traced_rounds(runner: Runner, tracer, jobs, seconds: float, started: float) -> float:
    """Untraced round, allocation round, then timed traced rounds.

    Returns the median job time of the untraced round, the base of the
    tracing overhead. Counters are reset before the traced rounds, so the
    run reports those alone. Traced runs take no speed samples: their times
    are plain wall seconds.
    """
    run_rounds(runner, jobs, 0.0, started)
    untraced = statistics.median(runner.job_times)
    tracer.install()
    try:
        if any(job.kind == "train" for job in jobs):
            tracer.alloc_active = True
            run_rounds(runner, jobs, 0.0, started)
            tracer.alloc_active = False
        runner.reset()
        runner.tracer = tracer
        run_rounds(runner, jobs, seconds, started)
    finally:
        runner.tracer = None
        tracer.uninstall()
    return untraced


def run_rounds(runner: Runner, jobs, seconds: float, started: float) -> None:
    """Whole rounds until the job time reaches ``seconds`` (at least one)."""
    while True:
        before = time.perf_counter()
        for job in jobs:
            runner.run_job(job)
        runner.finish_round()
        round_wall = time.perf_counter() - before
        if sum(runner.job_times) >= seconds or time.perf_counter() - started + round_wall > WALL_LIMIT_S:
            return


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.workdir)
        return 0

    started = time.perf_counter()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    import calibrate
    import workloads

    setup_samples = measure_setup(args.workload, args.seed, SETUP_PROBES // 2)
    cli = _import_trustgate()
    workdir = os.path.join(OUT_DIR, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    jobs = workloads.make_round(args.workload, args.seed, workdir)

    tracer = None
    if args.trace:
        import tracer as tracer_module

        tracer = tracer_module.Tracer()
    runner = Runner(cli)
    if args.workload == "verify":
        falsification_hooks(runner)  # untimed; also warms up the suite

    try:
        if tracer is None:
            runner.sampler = calibrate.Sampler(workloads.SPEED_EXPONENT[args.workload])
            runner.sampler.start()
            try:
                run_rounds(runner, jobs, args.seconds, started)
            finally:
                runner.sampler.stop()
        else:
            untraced = traced_rounds(runner, tracer, jobs, args.seconds, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup_samples += measure_setup(args.workload, args.seed, SETUP_PROBES - len(setup_samples))
    setup_s = statistics.median(elapsed * calibrate.REFERENCE_S / probe_s for elapsed, probe_s in setup_samples)

    import resource

    jobs_done = len(runner.job_times)
    scaled = runner.scaled_times()
    job_s = statistics.median(scaled)
    if tracer is None:
        values = {
            "job_s": job_s,
            "items_per_s": runner.items / sum(scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup_s,
        }
        wanted = spec["end_to_end"]
    else:
        values = tracer.layer_metrics(jobs_done)
        values["cli.out_bytes"] = runner.out_bytes / jobs_done
        values["trace.job_s"] = job_s
        values["trace.overhead"] = job_s / untraced - 1.0
        wanted = spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    for error in runner.errors:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    result = {
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    with open(os.path.join(OUT_DIR, f"result_{stem}.json"), "w", encoding="utf-8") as handle:
        extra = dict(job_times=runner.job_times, job_spans=runner.job_spans, setup_samples=setup_samples)
        if runner.sampler is not None:
            extra["speed_samples"] = runner.sampler.samples
        json.dump(dict(result, **extra), handle, indent=1)
    if tracer is not None:
        with open(os.path.join(OUT_DIR, f"trace_{stem}.json"), "w", encoding="utf-8") as handle:
            json.dump(tracer.table(), handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
