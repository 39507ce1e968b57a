#!/usr/bin/env python3
"""Benchmark for ekrlab: four verification workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload check-labeled --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Workloads: check-labeled, check-canonical, certify-explicit, certify-implicit
(see perfbench/README.md).  The load is a closed loop with one client on one
thread: each request is issued after the previous verdict returns.  A request
is what a CLI user gets: parse the input if there is one, run the library
call, serialize the report with ``ekrlab.io.to_json``.  Passes over the
seeded request list repeat while the next one is expected to end within
``--seconds`` (at least three).  Before each request, and after the last, a fixed calibration kernel is timed;
every latency is divided by the mean of its two neighbouring calibration
times and reported in reference seconds (see ``REFERENCE_CALIB_S``), so the
host's changing speed cancels out of the metrics.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` splits the time
between untraced passes and traced passes with spans around calls into each
ekrlab module, and prints the per-layer metrics.  The last stdout line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``; the line before it is the
provenance record.  Every verdict is checked against constants and the
benchmark's own re-check of each witness; exact counters must repeat across
passes, between traced and untraced passes, and across runs of the same
program source, benchmark files and seed.  Exit code 0 means a correct run,
1 a wrong answer or a broken counter gate (the result line is still
printed), 2 a usage or set-up error (no result line).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracing import NAME_ID, SPAN_NAMES, Instrumentation, Tracer
from workloads import WORKLOADS, WrongAnswer, build_requests

PROCESS_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_PASSES = 3
SETUP_PROBES = 3
CLI_PROBES = 3
SUBPROCESS_CAP_S = 20.0
# Time of one calibration_kernel() call on the host the benchmark was tuned
# on (2-core x86 VM, Python 3.11).  Time metrics are reported in reference
# seconds: measured time x REFERENCE_CALIB_S / the calibration time measured
# next to it.  On that host a reference second is about a second.
REFERENCE_CALIB_S = 0.012
# Stop issuing requests after this long, so a regressed program still ends
# with a counted failure well inside the 180 s a run may take.
RUN_DEADLINE_S = 140.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "verdict_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}
# per-layer self-time metric -> span name (see tracing.SPAN_NAMES)
SELF_TIME_METRICS = {
    "generators.enum_self_s": "generators.enum",
    "oracles.min_degree_self_s": "oracles.min_degree",
    "oracles.explicit_self_s": "oracles.explicit",
    "oracles.star_self_s": "oracles.star",
    "canonical.self_s": "canonical.form",
    "family.star_window_self_s": "family.star_window",
    "family.covers_self_s": "family.covers",
    "graphs.self_s": "graphs",
    "constructions.shrink_self_s": "constructions.shrink",
    "constructions.certify_self_s": "constructions.certify",
    "verify.self_s": "verify",
    "io.read_self_s": "io.read",
    "io.write_self_s": "io.write",
}
# per-layer count metric -> tracer counter
TRACED_COUNTS = (
    "generators.families",
    "oracles.min_degree_calls",
    "oracles.queries.contains",
    "oracles.queries.degree",
    "oracles.queries.extension",
    "oracles.queries.enumerate",
    "canonical.forms",
    "canonical.refine_calls",
    "family.star_window_calls",
)
QUERY_KINDS = tuple(name for name in TRACED_COUNTS if name.startswith("oracles.queries."))
# per-layer count metric -> per-request counter summed over a pass
REQUEST_COUNTS = {
    "generators.bk_nodes": "bk_nodes",
    "constructions.queries_used": "queries_used",
    "io.read_bytes": "read_bytes",
}


class SetupError(Exception):
    pass


class CapExceeded(BaseException):
    """Raised by the interval timer; a BaseException so library handlers cannot swallow it."""


def _on_alarm(signum, frame):
    raise CapExceeded()


@contextmanager
def wall_cap(seconds: float):
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.001))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


_CALIB_KEYS = tuple((i * 2_654_435_761) & 0xFF_FFFF_FFFF for i in range(20_000))


def calibration_kernel() -> int:
    """Fixed pure-Python work (dict updates, a sort, set-like lookups) that
    touches no ekrlab code; its time tracks the host's current speed."""
    table: dict[int, int] = {}
    for x in _CALIB_KEYS:
        table[x & 0xFFFF] = table.get(x & 0xFFFF, 0) + (x >> 20 & x)
    ordered = sorted(table.values())
    return sum(1 for x in _CALIB_KEYS if x & 0xFFFF in table) + len(ordered)


def calibrate() -> float:
    gc.collect()
    t0 = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - t0


def time_left() -> float:
    return RUN_DEADLINE_S - (time.perf_counter() - PROCESS_START)


def import_program():
    """Import ekrlab from this checkout's ``src``; anything else is a set-up error."""
    if not (SRC / "ekrlab" / "__init__.py").is_file():
        raise SetupError(f"no program source at {SRC / 'ekrlab'}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import ekrlab

    if Path(ekrlab.__file__).resolve().parent != (SRC / "ekrlab").resolve():
        raise SetupError(f"imported ekrlab from {ekrlab.__file__}, not from {SRC}")


def program_digest() -> str:
    """Digest of the program and of the benchmark files that make its inputs."""
    h = hashlib.sha256()
    for path in sorted((SRC / "ekrlab").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


# ---------------------------------------------------------------------------
# requests and passes


@dataclass
class Row:
    pass_index: int
    traced: bool
    label: str
    kind: str
    latency_s: float
    error: str | None
    verdict: tuple | None = None
    counters: dict = field(default_factory=dict)
    layer_counts: dict = field(default_factory=dict)
    calib_s: float = REFERENCE_CALIB_S

    @property
    def ref_latency_s(self) -> float:
        """Latency in reference seconds."""
        return self.latency_s * REFERENCE_CALIB_S / self.calib_s

    def record(self) -> dict:
        return {
            "pass": self.pass_index,
            "traced": self.traced,
            "label": self.label,
            "latency_ms": self.latency_s * 1000.0,
            "calib_ms": self.calib_s * 1000.0,
            "ref_latency_ms": self.ref_latency_s * 1000.0,
            "ok": self.error is None,
            "error": self.error,
            "counters": self.counters,
            "layer_counts": self.layer_counts,
        }


def run_pass(requests, pass_index: int, instrumentation=None) -> list[Row]:
    rows, calibs = [], []
    tracer = instrumentation.tracer if instrumentation is not None else None
    for idx, req in enumerate(requests):
        budget_left = time_left()
        if budget_left <= 0:
            rows.append(Row(pass_index, tracer is not None, req.label, req.kind, 0.0, "run deadline reached"))
            continue
        calibs.append(calibrate())
        before = dict(tracer.counts) if tracer is not None else None
        if tracer is not None:
            tracer.current_request = idx
            sid = tracer.open(NAME_ID["request"])
        out, error = None, None
        t0 = time.perf_counter()
        try:
            with wall_cap(min(req.wall_cap_s, budget_left)):
                out = req.run()
        except CapExceeded:
            error = "wall cap reached"
        except Exception as exc:  # any library failure is a counted failed request
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        row = Row(pass_index, tracer is not None, req.label, req.kind, latency, error)
        if tracer is not None:
            tracer.close(sid)
            row.layer_counts = {k: v - before.get(k, 0) for k, v in tracer.counts.items() if v != before.get(k, 0)}
        if out is not None:
            row.verdict, row.counters = out.verdict, out.counters
            try:
                req.check(out)
            except WrongAnswer as exc:
                row.error = f"wrong answer: {exc}"
        rows.append(row)
    calibs.append(calibrate())
    # Timed rows are a prefix (deadline rows come last); each gets the mean
    # of the calibrations just before and just after it.
    for row, before_s, after_s in zip(rows, calibs, calibs[1:]):
        row.calib_s = (before_s + after_s) / 2
    return rows


def run_passes(requests, seconds: float, first_index: int, instrumentation=None):
    """Repeat passes while the next one is expected to end within ``seconds``
    (judged by the longest pass so far); at least MIN_PASSES."""
    passes, tracers = [], []
    start = time.perf_counter()
    longest = 0.0
    while len(passes) < MIN_PASSES or time.perf_counter() - start + longest <= seconds:
        if time_left() <= 0:
            break
        pass_start = time.perf_counter()
        if instrumentation is not None:
            instrumentation.tracer = Tracer()
            instrumentation.install()
            try:
                passes.append(run_pass(requests, first_index + len(passes), instrumentation))
            finally:
                instrumentation.uninstall()
            tracers.append(instrumentation.tracer)
        else:
            passes.append(run_pass(requests, first_index + len(passes)))
        longest = max(longest, time.perf_counter() - pass_start)
    return passes, tracers


def pass_wall(rows: list[Row]) -> float:
    """Time to all verdicts of one pass: the closed loop's summed request latencies."""
    return sum(r.latency_s for r in rows)


def ref_latencies_by_request(passes: list[list[Row]]) -> list[list[float]]:
    """Each request's latencies over the run's passes, in reference seconds."""
    by_label: dict[str, list[float]] = {}
    for r in (r for p in passes for r in p):
        by_label.setdefault(r.label, []).append(r.ref_latency_s)
    return list(by_label.values())


def mean_ref_pass_wall(passes: list[list[Row]]) -> float:
    """Time to all verdicts of one pass, in reference seconds: each
    request's mean latency over the run's passes, summed over the list."""
    return sum(statistics.fmean(v) for v in ref_latencies_by_request(passes))


# ---------------------------------------------------------------------------
# set-up and subprocess probes


def setup_probe(workload: str, seed: int, probe_dir: Path) -> int:
    """Child mode: import the program, build the inputs, report readiness."""
    import_program()
    build_requests(workload, seed, probe_dir)
    print("ready", flush=True)
    shutil.rmtree(probe_dir, ignore_errors=True)
    return 0


def timed_child(argv: list[str], env: dict | None = None, until_line: bool = False) -> tuple[float, str]:
    """Start a child, time it (to its first stdout line if ``until_line``), wait for its end."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        with wall_cap(SUBPROCESS_CAP_S):
            if until_line:
                first = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                rest, err = proc.communicate()
                out = first + rest
            else:
                out, err = proc.communicate()
                elapsed = time.perf_counter() - t0
    except CapExceeded:
        raise SetupError(f"{' '.join(argv)} ran longer than {SUBPROCESS_CAP_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise SetupError(f"{' '.join(argv)} exited {proc.returncode}: {err.strip()[-2000:]}")
    return elapsed, out


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Process start to first request ready, in fresh processes, with the
    calibration time measured around each probe."""
    times, calibs = [], []
    for i in range(SETUP_PROBES):
        probe_dir = OUT / f"probe-{os.getpid()}-{i}"
        argv = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
                "--seed", str(seed), "--probe-dir", str(probe_dir)]
        before = calibrate()
        try:
            elapsed, out = timed_child(argv, until_line=True)
        finally:
            shutil.rmtree(probe_dir, ignore_errors=True)
        if not out.startswith("ready"):
            raise SetupError(f"set-up probe printed {out[:200]!r}")
        times.append(elapsed)
        calibs.append((before + calibrate()) / 2)
    return times, calibs


def cli_probes() -> tuple[list[float], list[float]]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    imports = [timed_child([sys.executable, "-c", "import ekrlab"], env)[0] for _ in range(CLI_PROBES)]
    checks = []
    for _ in range(CLI_PROBES):
        elapsed, out = timed_child([sys.executable, "-m", "ekrlab.cli", "check", "--n", "7", "--k", "3", "--d", "2"], env)
        report = json.loads(out)
        if (report["verdict"], report["families_checked"]) != ("holds", 6_127):
            raise SetupError(f"CLI check reported {report['verdict']} over {report['families_checked']} families")
        checks.append(elapsed)
    return imports, checks


# ---------------------------------------------------------------------------
# exact-count gate


def exact_gate(all_rows: list[Row], workload: str, seed: int, digest: str) -> list[str]:
    """Counters repeat across passes (traced or not), verdicts agree, and
    per-kind oracle queries sum to each certificate's queries_used."""
    problems = []
    first: dict[str, Row] = {}
    first_traced: dict[str, Row] = {}
    for row in all_rows:
        if row.error is not None:
            continue
        ref = first.setdefault(row.label, row)
        if row.verdict != ref.verdict:
            problems.append(f"{row.label}: verdict of pass {row.pass_index} differs from pass {ref.pass_index}")
        if row.counters != ref.counters:
            problems.append(f"{row.label}: counters {row.counters} in pass {row.pass_index}, {ref.counters} before")
        if row.traced:
            tref = first_traced.setdefault(row.label, row)
            if row.layer_counts != tref.layer_counts:
                problems.append(f"{row.label}: traced counts differ between passes {tref.pass_index} and {row.pass_index}")
            if row.kind == "certify":
                asked = sum(row.layer_counts.get(k, 0) for k in QUERY_KINDS)
                if asked != row.counters["queries_used"]:
                    problems.append(f"{row.label}: {asked} oracle queries by kind, queries_used {row.counters['queries_used']}")

    # Across runs: the same program, benchmark files and seed must give the same counts.
    record = {label: dict(row.counters) for label, row in first.items()}
    for label, row in first_traced.items():
        record[label].update(row.layer_counts)
    path = OUT / f"counters-{workload}-seed{seed}-{digest}.json"
    if path.is_file():
        previous = json.loads(path.read_text())
        for label, counts in record.items():
            for key, value in counts.items():
                old = previous.get(label, {}).get(key)
                if old is not None and old != value:
                    problems.append(f"{label}: {key} = {value} here, {old} in an earlier run of this seed")
        for label, counts in previous.items():
            record.setdefault(label, {})
            for key, value in counts.items():
                record[label].setdefault(key, value)
    path.write_text(json.dumps(record, sort_keys=True, indent=1))
    return problems


# ---------------------------------------------------------------------------
# main


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or 'all' to run each in turn in its own process")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--probe-dir", type=Path, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def end_to_end(rows: list[list[Row]], setup_times: list[float], setup_calibs: list[float],
               attempted: int, failed: int) -> tuple[dict, dict]:
    """End-to-end metrics; times in reference seconds (see REFERENCE_CALIB_S)."""
    n_latencies = sum(len(p) for p in rows)
    # The median request's median latency: a pooled median over all samples
    # would fall in the tail of one request's repeats and drift with them.
    p50 = statistics.median(statistics.median(v) for v in ref_latencies_by_request(rows))
    values = {
        "setup_s": statistics.median(t * REFERENCE_CALIB_S / c for t, c in zip(setup_times, setup_calibs)),
        "wall_s": mean_ref_pass_wall(rows),
        "verdict_ms_p50": p50 * 1000.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": (attempted - failed) / attempted,
    }
    samples = {
        "setup_s": len(setup_times),
        "wall_s": n_latencies,
        "verdict_ms_p50": n_latencies,
        "peak_rss_mb": 1,
        "ok_share": attempted,
    }
    return values, samples


def per_layer(untraced: list[list[Row]], traced: list[list[Row]], tracers, setup_tracer,
              cli_import: list[float], cli_check: list[float]) -> tuple[dict, dict]:
    values, samples = {}, {}
    self_times = [t.self_times() for t in tracers]
    setup_self = setup_tracer.self_times()
    for metric, span in SELF_TIME_METRICS.items():
        values[metric] = statistics.median(st[span] for st in self_times)
        samples[metric] = len(self_times)
    # write_family runs during set-up, which is traced once
    values["io.write_self_s"] += setup_self["io.write"]
    rows = traced[0]
    for metric, counter in REQUEST_COUNTS.items():
        values[metric] = sum(r.counters.get(counter, 0) for r in rows)
        samples[metric] = len(rows)
    for name in TRACED_COUNTS:
        values[name] = sum(r.layer_counts.get(name, 0) for r in rows)
        samples[name] = len(rows)
    values["cli.import_s"] = statistics.median(cli_import)
    values["cli.check_s"] = statistics.median(cli_check)
    samples["cli.import_s"], samples["cli.check_s"] = len(cli_import), len(cli_check)
    values["tracing_overhead_s"] = mean_ref_pass_wall(traced) - mean_ref_pass_wall(untraced)
    samples["tracing_overhead_s"] = len(traced) + len(untraced)
    return values, samples


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric == "io.read_bytes":
        return "bytes"
    return "count"


def run_all(args) -> int:
    """Run every workload in its own process, one after another, and combine the results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            raise SetupError(f"workload {workload} exited {proc.returncode} without a result")
        for line in lines[:-1]:
            print(line if line.startswith("{") else f"{workload:17s} {line}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{workload}.{m}": v for m, v in result["metrics"].items()})
        worst = max(worst, proc.returncode)
    print(json.dumps(combined))
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed, args.probe_dir)
    if args.workload == "all":
        return run_all(args)
    import_program()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"inputs-{args.workload}-{os.getpid()}"
    digest = program_digest()
    untraced, traced, tracers = [], [], []
    setup_times, setup_calibs, cli_import, cli_check = [], [], [], []
    try:
        if args.trace:
            instrumentation = Instrumentation()
            setup_tracer = instrumentation.tracer = Tracer()
            instrumentation.install()
            try:
                requests = build_requests(args.workload, args.seed, workdir)
            finally:
                instrumentation.uninstall()
            cli_import, cli_check = cli_probes()
            untraced, _ = run_passes(requests, args.seconds / 2, 0)
            traced, tracers = run_passes(requests, args.seconds / 2, len(untraced), instrumentation)
            if not traced:
                raise SetupError(f"no time left for a traced pass within {RUN_DEADLINE_S} s")
        else:
            setup_times, setup_calibs = measure_setup(args.workload, args.seed)
            requests = build_requests(args.workload, args.seed, workdir)
            untraced, _ = run_passes(requests, args.seconds, 0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    all_rows = [r for p in untraced + traced for r in p]
    problems = exact_gate(all_rows, args.workload, args.seed, digest)
    attempted = len(all_rows)
    failed = sum(1 for r in all_rows if r.error is not None)
    if args.trace:
        values, samples = per_layer(untraced, traced, tracers, setup_tracer, cli_import, cli_check)
        spans_file = OUT / f"spans-{args.workload}.npz"
        arrays = {}
        for i, tracer in enumerate([setup_tracer] + tracers):
            arrays.update({f"pass{i}_{k}": v for k, v in tracer.arrays().items()})
        np.savez(spans_file, names=np.array(SPAN_NAMES), **arrays)
    else:
        values, samples = end_to_end(untraced, setup_times, setup_calibs, attempted, failed)
        spans_file = None

    walls = [pass_wall(p) for p in untraced]
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one client, one thread",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
        "program_digest": digest,
        "reference_calib_s": REFERENCE_CALIB_S,
        "setup_probes_s": setup_times,
        "setup_probe_calibs_s": setup_calibs,
        "untraced_pass_walls_s": walls,
        "untraced_pass_calib_median_s": [statistics.median(r.calib_s for r in p) for p in untraced],
        "traced_pass_walls_s": [pass_wall(p) for p in traced],
        "samples": samples,
        "tracing_overhead_s": values.get("tracing_overhead_s"),
        "spans_file": str(spans_file.relative_to(ROOT)) if spans_file else None,
        "gate_problems": problems,
        "rows": [r.record() for r in all_rows],
    }
    for metric, value in values.items():
        print(f"{metric:32s} {value:14.6f} {unit_of(metric):6s} (samples {samples[metric]})")
    print(f"{'error_share':32s} {failed / attempted:14.6f} {'ratio':6s} ({failed} failed of {attempted} attempted)")
    for r in all_rows:
        if r.error is not None:
            print(f"FAILED pass {r.pass_index} {r.label}: {r.error}", file=sys.stderr)
    for problem in problems:
        print(f"EXACT-COUNT GATE BROKEN: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": unit_of(m)} for m, v in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
