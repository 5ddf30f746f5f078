#!/usr/bin/env python3
"""semwsdl benchmark runner.

    python3 bench/run.py --workload annotate-mix --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout.  It generates the workload's
corpus and lexicon from --seed under .benchwork/, then runs the real CLI
(``semwsdl annotate|ablate|wordfreq`` with default flags) as one child
process at a time: a closed loop with a single client.  A fixed probe
(bench/probe.py) runs between the invocations, and the times are scaled by
it to a reference host speed.  Every output is checked against independent
oracles outside the timed region.  The last line of stdout is one JSON
object with the metrics named in BENCHMARK.json: the end-to-end ones with
--trace 0, the per-layer ones with --trace 1 (a separate run inside this
process with timing wrappers installed).
See bench/NOTES.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import pyexpat
import shutil
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import mean, median

ROOT = Path(__file__).resolve().parent.parent
NEEDED = ["BENCHMARK.json", "src/semwsdl/cli.py", "src/semwsdl/data/lexicon.tsv",
          "tests/bruteforce.py", "tests/corpusgen.py", "fixtures/corpus"]

# workload -> CLI subcommand; the corpus generator has the workload's name
WORKLOADS = {
    "annotate-mix": "annotate",
    "ablate-deep": "ablate",
    "wordfreq-imports": "wordfreq",
    # baseline cross-check only (not in BENCHMARK.json): the ten fixtures x300
    "fixture-copies": "annotate",
}

CHILD_HASH_SEED = "0"
CHILD_ENV = {
    "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
    "PYTHONPATH": str(ROOT / "src"),
    "PYTHONHASHSEED": CHILD_HASH_SEED,
    "LC_ALL": "C.UTF-8",
}
PROBE = ROOT / "bench" / "probe.py"
CLI_MAIN = "import sys; from semwsdl.cli import main; sys.exit(main())"
MIN_SAMPLES = 3
# file times come from the kernel's coarse clock, which may lag time_ns() by a tick
MTIME_SLACK_NS = 20_000_000
# about the probe's mean time on the host of the first results (bench/NOTES.md)
PROBE_REFERENCE_S = 0.7
SETUP_SAMPLES = 5


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    sys_s: float
    peak_rss_mb: float
    exit_code: int
    stderr: str


def invoke(argv: list[str], log_dir: Path) -> Invocation:
    """Run one CLI child to completion; usage is read for that child only."""
    stdout_path, stderr_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(stdout_path), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], CHILD_ENV,
                         file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        # the child may already be reaped when a signal lands just after wait4
        with contextlib.suppress(ProcessLookupError, ChildProcessError):
            os.kill(pid, 9)
            os.wait4(pid, 0)
        raise
    wall = time.perf_counter() - start
    return Invocation(wall, usage.ru_utime + usage.ru_stime, usage.ru_stime,
                      usage.ru_maxrss / 1024,
                      os.waitstatus_to_exitcode(status),
                      stderr_path.read_text("utf-8", errors="replace"))


def digests(directory: Path, since_ns: int = 0) -> dict[str, str]:
    """sha256 of every file; a file not rewritten since since_ns reads "stale"."""
    return {path.name: (hashlib.sha256(path.read_bytes()).hexdigest()
                        if path.stat().st_mtime_ns >= since_ns - MTIME_SLACK_NS else "stale")
            for path in sorted(directory.iterdir())}


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


class Run:
    """One benchmark run: generated inputs, the CLI loop and the checks."""

    def __init__(self, workload: str, work: Path):
        self.command = WORKLOADS[workload]
        self.work = work
        self.corpus = work / "corpus"
        self.planted = json.loads((work / "planted_bad.json").read_text("utf-8"))
        self.files = sum(1 for _ in self.corpus.iterdir())
        self.expected_exit = 1 if self.planted else 0
        self.attempted = 0
        self.failed = 0
        self.failed_files = 0
        self.attempted_files = 0
        self.reference: dict[str, str] | None = None
        self.params = 0
        # every invocation overwrites the files of the one before: deleting
        # files while timing slows later file creation (bench/NOTES.md)
        self.out = work / "out"
        self.setup_out = work / "out-setup"

    def cli_args(self, inputs: Path, out: Path) -> list[str]:
        return [self.command, "--input-paths", str(inputs), "--output-dir", str(out),
                "--lexicon-path", str(self.work / "lexicon.tsv"),
                "--overrides-path", str(self.work / "overrides.txt")]

    def input_files(self) -> list[str]:
        return sorted(str(path) for path in self.corpus.iterdir())

    def verify(self, exit_code: int, stderr: str, started_ns: int) -> None:
        """Cheap per-invocation check: exit code, skipped set, rewritten output bytes."""
        import check
        self.attempted += 1
        self.attempted_files += self.files
        ok = exit_code == self.expected_exit
        if ok:
            try:
                self.failed_files += check.check_skipped(stderr, self.planted)
                ok = digests(self.out, started_ns) == self.reference
            except check.CheckFailed as exc:
                print(f"bench: {exc}", file=sys.stderr)
                ok = False
        else:
            print(f"bench: exit code {exit_code}, expected {self.expected_exit}:\n"
                  f"{stderr[-2000:]}", file=sys.stderr)
            self.failed_files += self.files
        self.failed += not ok

    def warm_up_and_check(self, oracle) -> None:
        """First invocation: fills caches, writes .pyc, and is oracle-checked."""
        import check
        self.out.mkdir()
        result = invoke(["-c", CLI_MAIN, *self.cli_args(self.corpus, self.out)], self.work)
        self.attempted += 1
        if result.exit_code != self.expected_exit:
            _fail(f"warm-up exit code {result.exit_code}:\n{result.stderr[-2000:]}")
        check.check_skipped(result.stderr, self.planted)
        self.params = check.check_outputs(self.command, self.out, self.input_files(),
                                          self.planted, oracle)
        self.reference = digests(self.out)

    def timed_loop(self, seconds: float, with_setup: bool):
        """Invocations for seconds of wall time, with at least MIN_SAMPLES of each kind.

        with_setup follows each corpus invocation with a run of the probe,
        and SETUP_SAMPLES times, evenly over the window, with the same
        command on the minimal WSDL, so all three kinds of sample share one
        window.
        Returns the corpus invocations, the set-up times and the probe times.
        """
        samples: list[Invocation] = []
        setup: list[float] = []
        probes: list[float] = []
        start = time.perf_counter()
        iteration = 0.0
        while (len(samples) < MIN_SAMPLES or (with_setup and len(setup) < MIN_SAMPLES)
               or time.perf_counter() - start + iteration < seconds):
            began = time.perf_counter()
            started_ns = time.time_ns()
            result = invoke(["-c", CLI_MAIN, *self.cli_args(self.corpus, self.out)], self.work)
            self.verify(result.exit_code, result.stderr, started_ns)
            samples.append(result)
            if with_setup:
                probes.append(self.probe_time())
                if len(setup) * seconds <= SETUP_SAMPLES * (time.perf_counter() - start):
                    setup.append(self.setup_time())
            iteration = time.perf_counter() - began
        return samples, setup, probes

    def probe_time(self) -> float:
        """One run of the fixed host-speed probe, which does not use semwsdl."""
        result = invoke([str(PROBE)], self.work)
        if result.exit_code != 0:
            _fail(f"probe exit code {result.exit_code}:\n{result.stderr[-2000:]}")
        return result.wall_s

    def setup_time(self) -> float:
        """Same command, lexicon and overrides on one minimal WSDL."""
        self.setup_out.mkdir(exist_ok=True)
        result = invoke(["-c", CLI_MAIN, *self.cli_args(self.work / "minimal", self.setup_out)],
                        self.work)
        self.attempted += 1
        if result.exit_code != 0:
            self.failed += 1
            print(f"bench: setup run exit code {result.exit_code}:\n"
                  f"{result.stderr[-2000:]}", file=sys.stderr)
        return result.wall_s

    def traced_loop(self, seconds: float):
        """In-process cli.run with timing wrappers; returns per-run layer metrics."""
        from semwsdl import cli
        import tracing
        runs = []
        elapsed = 0.0
        while len(runs) < MIN_SAMPLES or elapsed < seconds:
            started_ns = time.time_ns()
            stderr = io.StringIO()
            with tracing.Tracer() as tracer, contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(stderr):
                traced_run = tracer.span(tracing.ROOT_SPAN, cli.run)
                exit_code = traced_run(self.cli_args(self.corpus, self.out))
            self.verify(exit_code, stderr.getvalue(), started_ns)
            metrics = tracing.layer_metrics(tracer, self.command)
            elapsed += metrics["cli.run.s"]
            runs.append(metrics)
        tracer.write_spans(self.work / "spans.tsv")
        return runs


def end_to_end(run: Run, samples: list[Invocation], setup: list[float],
               probes: list[float]) -> dict[str, float]:
    """Mean times of the run (set-up: the median), scaled to the reference host speed.

    The host's speed drifts by a third and more within minutes, and the
    probe runs between the CLI invocations of the same window, so its mean
    time is this window's speed.  scale is PROBE_REFERENCE_S over that
    mean: a time reads as it would on a host where the probe takes
    PROBE_REFERENCE_S.  Means, not medians: the share of slow stretches
    enters a mean in proportion, in the CLI's times as in the probe's, so
    the two cancel.  Set-up samples are few and short, so setup_s is their
    median.  The unscaled values are kept in result.json.
    """
    scale = PROBE_REFERENCE_S / mean(probes)
    wall = mean(s.wall_s for s in samples)
    return {
        "wall_s": wall * scale,
        "params_per_s": run.params / (wall * scale),
        "cpu_s": mean(s.cpu_s for s in samples) * scale,
        "peak_rss_mb": median(s.peak_rss_mb for s in samples),
        "setup_s": median(setup) * scale,
        "files_failed_ratio": run.failed_files / run.attempted_files,
        "probe_mean_s": mean(probes),
        "unscaled_wall_s": wall,
        "unscaled_cpu_s": mean(s.cpu_s for s in samples),
        "unscaled_setup_s": median(setup),
    }


def per_layer(runs: list[dict[str, float]], untraced_wall: float) -> dict[str, float]:
    """Median of each timing over the traced runs; counts must repeat exactly."""
    import tracing
    metrics = {}
    for name in runs[0]:
        values = [run[name] for run in runs]
        if name.endswith(tracing.COUNT_SUFFIXES):
            if len(set(values)) != 1:
                raise tracing.TraceError(f"{name} differs between traced runs: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = median(values)
    metrics["trace.overhead_ratio"] = metrics.pop("cli.run.s") / untraced_wall - 1
    return metrics


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "expat": pyexpat.EXPAT_VERSION,
        "nproc": len(os.sched_getaffinity(0)),
        "child_hash_seed": CHILD_HASH_SEED,
        "runner_hash_seed": os.environ.get("PYTHONHASHSEED"),
        "machine": platform.machine(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [name for name in NEEDED if not (ROOT / name).exists()]
    if missing:
        _fail(f"not a semwsdl source checkout (missing {', '.join(missing)})")
    if os.environ.get("PYTHONHASHSEED") != CHILD_HASH_SEED:
        # pin this process's own hash seed too, so traced runs repeat
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": CHILD_HASH_SEED})
    # SIGTERM unwinds like Ctrl-C, so invoke() kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]
    import check
    import generate
    import tracing

    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    work = fresh_dir(ROOT / ".benchwork" / args.workload)
    started = time.perf_counter()
    generate.generate(args.workload, args.seed, ROOT, work)
    generated = time.perf_counter()

    run = Run(args.workload, work)
    oracle = check.Oracle(ROOT, work / "lexicon.tsv", work / "overrides.txt")
    raw = {}
    try:
        run.warm_up_and_check(oracle)
        checked = time.perf_counter()
        if args.trace:
            untraced, _, _ = run.timed_loop(args.seconds / 2, with_setup=False)
            values = per_layer(run.traced_loop(args.seconds / 2),
                               median(s.wall_s for s in untraced))
            raw = {"wall_s": [s.wall_s for s in untraced]}
        else:
            samples, setup, probes = run.timed_loop(args.seconds, with_setup=True)
            values = end_to_end(run, samples, setup, probes)
            raw = {"wall_s": [s.wall_s for s in samples], "cpu_s": [s.cpu_s for s in samples],
                   "sys_s": [s.sys_s for s in samples],
                   "peak_rss_mb": [s.peak_rss_mb for s in samples], "setup_s": setup,
                   "probe_s": probes}
    except check.CheckFailed as exc:
        _fail(f"output check failed: {exc}")
    except tracing.TraceError as exc:
        _fail(f"trace failed: {exc}")

    info = {"workload": args.workload, "command": WORKLOADS[args.workload],
            "seed": args.seed, "trace": args.trace, "input_files": run.files,
            "planted_bad": len(run.planted), "parameters": run.params,
            "generate_s": generated - started, "warm_up_and_check_s": checked - generated,
            "total_s": time.perf_counter() - started, **environment()}
    missing = [metric["name"] for metric in wanted if metric["name"] not in values]
    if missing:
        _fail(f"metrics not measured: {missing}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
                    for metric in wanted},
    }
    record = {"info": info, "result": result, "all_values": values, "samples": raw}
    (work / "result.json").write_text(json.dumps(record, indent=1), "utf-8")
    print(json.dumps({"info": info}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
