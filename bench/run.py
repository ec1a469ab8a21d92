"""Benchmark for gibbslab: seeded workloads, end-to-end metrics, traced layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the library is imported from ./src and
nothing is installed.  One run builds the workload's op list from the seed,
makes one untimed warm-up pass, then repeats the list in a closed loop (one
client, one thread, OpenBLAS pinned to one thread) until the measured time
reaches --seconds, and runs the workload's CLI jobs.  Every result is checked
outside the timed region; an op fails if it raises or its check fails.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json.  --trace 1
spends half the time untraced and half traced, writes the spans to
.bench_out/spans-<workload>.jsonl and prints the per-layer metrics computed
from that file.  Lines before the last start with '#' and are for people;
the last line is one JSON object.  --workload all runs every workload in a
process of its own and prints one table.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # must be set before numpy is first imported

import argparse
import dataclasses
import gc
import importlib.metadata
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_SAMPLES = 100   # op latencies per run, so at least ten lie above the 90th percentile
MIN_PASSES = 5      # measured passes, each followed by one timed run of the CLI jobs
SETUP_SAMPLES = 8   # fresh interpreters per run, spread evenly over the measured time
TRACED_CLI_RUNS = 3

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import gibbslab, gibbslab.cli
t1 = time.perf_counter()
sys.path.insert(0, {bench!r})
import workloads
t2 = time.perf_counter()
workloads.WORKLOADS[{name!r}].containers()
t3 = time.perf_counter()
print(repr((t1 - t0) + (t3 - t2)))
"""


@dataclasses.dataclass
class Raised:
    """Stands in for the result of an op that raised."""
    exc: BaseException


@dataclasses.dataclass
class Pass:
    start: float
    end: float
    latencies: list[float]
    results: list
    failed: int


def corrupt(x):
    """A copy of a result with one value changed, for the smoke check."""
    if isinstance(x, bool):
        return not x
    if isinstance(x, (Fraction, float)):
        return x + 1 + abs(x)
    if isinstance(x, int):
        return x + 1
    if isinstance(x, np.ndarray):
        y = x.copy()
        y.flat[0] = corrupt(float(y.flat[0]))
        return y
    if isinstance(x, dict):
        key = next(iter(x))
        return {**x, key: corrupt(x[key])}
    if isinstance(x, (tuple, list)):
        return type(x)([corrupt(x[0]), *x[1:]])
    if dataclasses.is_dataclass(x):
        fields = dataclasses.fields(x)
        field = next((f for f in fields if isinstance(getattr(x, f.name), (Fraction, float))),
                     fields[0])
        return dataclasses.replace(x, **{field.name: corrupt(getattr(x, field.name))})
    return x


class Run:
    """Op execution and result accounting for one benchmark run."""

    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.verify_s = 0.0
        self.errors: list[str] = []

    def run_pass(self, traced: bool = False) -> Pass:
        tracer = self.tracer if traced else None
        results, latencies = [], []
        pass_span = tracer.open(spans.PASS) if tracer else None
        start = perf_counter()
        for op in self.ops:
            if tracer:
                tracer.run_id += 1
                op_span = tracer.open(spans.OP)
            t0 = perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # a raising op is a failed op, not a crashed run
                result = Raised(exc)
            latencies.append(perf_counter() - t0)
            if tracer:
                tracer.close(op_span)
            results.append(result)
        end = perf_counter()
        if tracer:
            tracer.close(pass_span)
        failed = self.check([(op.kind, op.check) for op in self.ops], results)
        return Pass(start, end, latencies, results, failed)

    def check(self, checks, results) -> int:
        """Check results outside the timed region; returns how many failed."""
        tracing = self.tracer is not None and self.tracer.active
        if tracing:
            self.tracer.active = False
        t0 = perf_counter()
        failed = 0
        for (kind, check), result in zip(checks, results):
            try:
                if isinstance(result, Raised):
                    raise result.exc
                check(result)
            except Exception as exc:  # a failed check, or a check that cannot read the result
                failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"{kind}: {type(exc).__name__}: {exc}"[:300])
        t1 = perf_counter()
        if tracing:
            self.tracer.active = True
        if self.tracer is not None:
            self.tracer.record(spans.VERIFY, t0, t1)
        self.verify_s += t1 - t0
        self.attempted += len(results)
        self.failed += failed
        return failed

    def smoke(self, results) -> tuple[int, int]:
        """Feed a corrupted copy of every result through the same checks and
        accounting; returns (failed, attempted) for that corrupted pass."""
        probe = Run(self.ops)
        probe.check([(op.kind, op.check) for op in self.ops], [corrupt(r) for r in results])
        return probe.failed, probe.attempted

    def run_cli(self, jobs, workdir: Path, traced: bool = False) -> float:
        """Run the CLI job list once in-process and check its outputs; returns
        the time the jobs took."""
        from gibbslab import cli
        configs, outs, codes = [], [], []
        for i, job in enumerate(jobs):
            configs.append(workdir / f"job{i}.json")
            configs[i].write_text(json.dumps(job.config), encoding="utf-8")
            outs.append(workdir / f"job{i}.out")
            outs[i].unlink(missing_ok=True)
        t0 = perf_counter()
        for i, job in enumerate(jobs):
            if traced:
                self.tracer.run_id += 1
            codes.append(cli.main([*job.argv, "--config", str(configs[i]), "--out", str(outs[i])]))
        elapsed = perf_counter() - t0
        results = [out.read_text(encoding="utf-8") if code == 0
                   else Raised(RuntimeError(f"exit code {code}"))
                   for out, code in zip(outs, codes)]
        self.check([(job.argv[0], job.check) for job in jobs], results)
        return elapsed


def measure_setup(name: str) -> float:
    """Set-up time of one fresh interpreter, as it measures it itself."""
    code = SETUP_CODE.format(src=str(SRC), bench=str(Path(__file__).resolve().parent), name=name)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """The checkout's commit, read from .git without running git; a checkout
    that is not a repository gives 'unknown'."""
    git = ROOT / ".git"
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


def environment(args) -> dict:
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "jsonschema": importlib.metadata.version("jsonschema"),
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(), "commit": git_commit(),
        "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
    }


def emit(spec_metrics: list[dict], values: dict, correct: bool, attempted: int,
         failed: int) -> None:
    names = [m["name"] for m in spec_metrics]
    if sorted(names) != sorted(values):
        raise SystemExit(f"bench: metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}")
    for m in spec_metrics:
        print(f"# {m['name']:48s} {values[m['name']]!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                                  for m in spec_metrics}}))


def run_one(args, spec: dict) -> int:
    import workloads

    wl_spec = workloads.WORKLOADS[args.workload]
    print("# env " + json.dumps(environment(args)))
    workload = wl_spec.build(args.seed)
    tracer = spans.Tracer() if args.trace else None
    run = Run(workload.ops, tracer)
    workdir = OUT / f"tmp-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # warm-up, untimed: caches, lazy imports and the checks' references
        warm = run.run_pass()
        smoke_failed, smoke_attempted = run.smoke(warm.results)
        del warm
        run.run_cli(workload.cli_jobs, workdir)
        if not tracer:
            measure_setup(args.workload)  # compiles bytecode on a fresh checkout
        # the collector's passes during timing should not scan the references
        # the checks keep, which are the benchmark's state, not the library's
        gc.collect()
        gc.freeze()

        # Passes alternate with the CLI jobs and the fresh interpreters, so that
        # every sample spreads over the whole run and over the machine's
        # changes of speed during it.
        budget = args.seconds / 2 if args.trace else args.seconds
        walls, latencies, cli_times, setup_times, measured_failed = [], [], [], [], 0
        start = perf_counter()
        while perf_counter() - start < budget or not tracer and (
                len(latencies) < MIN_SAMPLES or len(walls) < MIN_PASSES):
            p = run.run_pass()
            walls.append(p.end - p.start)
            latencies += p.latencies
            measured_failed += p.failed
            if tracer:
                tracer.record(spans.PASS_UNTRACED, p.start, p.end)
                continue
            cli_times.append(run.run_cli(workload.cli_jobs, workdir))
            if perf_counter() - start >= len(setup_times) * budget / SETUP_SAMPLES:
                setup_times.append(measure_setup(args.workload))

        if tracer:
            tracer.install()
            try:
                span = tracer.open(spans.SETUP)
                wl_spec.containers()
                tracer.close(span)
                start = perf_counter()
                while perf_counter() - start < budget:
                    run.run_pass(traced=True)
                for _ in range(TRACED_CLI_RUNS):
                    run.run_cli(workload.cli_jobs, workdir, traced=True)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in run.errors:
        print(f"bench: {line}", file=sys.stderr)
    correct = run.failed == 0 and smoke_attempted > 0 and smoke_failed == smoke_attempted
    print(f"# ops per pass {len(run.ops)}, measured passes {len(walls)}, "
          f"latency samples {len(latencies)}")
    print(f"# error_rate {run.failed / run.attempted!r} "
          f"({run.failed} failed of {run.attempted} attempted)")
    print(f"# smoke: a corrupted pass gives error_rate {smoke_failed / smoke_attempted!r} "
          f"({smoke_failed} of {smoke_attempted})")
    print(f"# oracle.verify_s {run.verify_s!r}")

    if tracer:
        path = OUT / f"spans-{args.workload}.jsonl"
        tracer.write(path, environment(args))
        values = spans.layer_metrics(spans.read_spans(path))
        print(f"# spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
        emit(spec["per_layer"], values, correct, run.attempted, run.failed)
        return 0

    ms = sorted(t * 1e3 for t in latencies)
    p90 = statistics.quantiles(ms, n=10)[-1]
    ok_ops = len(latencies) - measured_failed
    print(f"# op_ms from {len(ms)} samples, {sum(t > p90 for t in ms)} above p90; "
          f"cli runs {len(cli_times)}; setup interpreters {len(setup_times)}")
    values = {
        "wall_s": statistics.median(walls),
        "ops_per_s": ok_ops / sum(walls),
        "op_ms.p50": statistics.median(ms),
        "op_ms.p90": p90,
        "cli_s": statistics.median(cli_times),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    emit(spec["end_to_end"], values, correct, run.attempted, run.failed)
    return 0


def run_all(args, names) -> int:
    """Each workload in its own process, so peak RSS and warm state stay separate."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, v in result["metrics"].items():
            print(f"# {name:14s} {metric:48s} {v['value']!r} {v['unit']}")
            metrics[f"{name}.{metric}"] = v
        print(f"# {name:14s} {'error_rate':48s} {result['failed'] / result['attempted']!r} "
              f"ratio ({result['failed']} of {result['attempted']})")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gibbslab" / "__init__.py").is_file():
        print(f"bench: no gibbslab sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gibbslab
    if Path(gibbslab.__file__).resolve().parent != (SRC / "gibbslab").resolve():
        print(f"bench: imported gibbslab from {gibbslab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
