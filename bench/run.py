"""Time-to-verdict benchmark for starobs.

    python3 bench/run.py --workload eliminate --seed 1 --seconds 25 --trace 0

One client sends seeded problem files through `starobs.cli.main` in a
closed loop, in one process, and checks every report against the answer
known by construction (see workloads.py).  The last line of stdout is
one JSON object: `correct`, `attempted`, `failed` and `metrics`.  With
`--trace 0` the metrics are the `end_to_end` list of BENCHMARK.json, with
`--trace 1` its `per_layer` list, measured by wrapping the layer functions
(see tracer.py).  The line before it is a `detail` object: report digest,
oracle fractions, sample counts, raw wall-clock figures and, when traced,
every deterministic counter.

Times are in reference seconds.  A CPU shared with other tenants can
change speed by up to 2x within seconds, and a fixed pure-Python
sparse-polynomial product, the probe, slows down with the program.  A
timer signal runs the probe every PROBE_GAP_S, inside requests too; each
request's wall time, less the probes it contains, is scaled by
PROBE_REF_S over the median probe time around it.  A change to the
program moves the scaled times as it moves wall time; most of a change
in machine speed cancels.  README.md gives the measurements.

The parent process only orchestrates: each measurement runs in a fresh
child process (the hidden `--role` option), so that import, generation
and peak memory belong to one workload.  Set-up is timed in several
fresh children and reported as their median.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("eliminate", "extend", "cli")
SETUP_SAMPLES = 9  # fresh processes timed for setup_s, the measuring run included
RUN_LIMIT_S = 170.0  # whole run, children included
PROBE_REF_S = 0.005  # probe time at reference speed: scaled = wall * PROBE_REF_S / probe
PROBE_GAP_S = 0.1


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, child failure)."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "run"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# two fixed sparse polynomials in three variables: exponent tuple -> Fraction
PROBE_A = {(i, j, k): Fraction(i + 1, j + k + 1) for i in range(4) for j in range(3) for k in range(3)}
PROBE_B = {(i, j, k): Fraction(j - 2, i + k + 1) for i in range(3) for j in range(4) for k in range(2)}


def probe() -> float:
    """Wall time of a fixed sparse-polynomial product: the CPU's current speed.

    The product is written here, not taken from the program, so that no
    change to the program can move it.  The collector is paused so that
    the probe never pays for a collection of the program's heap.
    """
    paused = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        out: dict = {}
        for e1, c1 in PROBE_A.items():
            for e2, c2 in PROBE_B.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return time.perf_counter() - start
    finally:
        if paused:
            gc.enable()


class SpeedSampler:
    """Runs the probe every PROBE_GAP_S from a SIGALRM timer while active."""

    def __init__(self):
        self.times: list[float] = []  # middle of each probe
        self.durations: list[float] = []
        self.spent = 0.0  # wall time taken by the probes themselves

    def clock(self) -> float:
        """perf_counter less the time spent in probes."""
        return time.perf_counter() - self.spent

    def sample(self, *_):
        start = time.perf_counter()
        duration = probe()
        self.times.append(start + duration / 2)
        self.durations.append(duration)
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_GAP_S, PROBE_GAP_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def rate(self, t0: float, t1: float) -> float:
        """Reference seconds per wall second over [t0, t1].

        Takes the median of the probes inside the interval and the nearest
        one on each side; a median, because now and then a single probe
        runs several times slower than its neighbours.
        """
        lo, hi = bisect_left(self.times, t0), bisect_right(self.times, t1)
        return PROBE_REF_S / statistics.median(self.durations[max(lo - 1, 0) : hi + 1])


# -- child: one fresh process ------------------------------------------------------


def setup(workload: str, seed: int, workdir: Path):
    """Import the program, generate the problems and write their files."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import starobs
    from starobs import cli

    if Path(starobs.__file__).resolve().parent != SRC / "starobs":
        raise BenchError(f"imported starobs from {starobs.__file__}, not from {SRC}")
    import workloads

    cases = workloads.build(workload, seed)
    workdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, case in enumerate(cases):
        path = workdir / f"{i:02d}-{case.label}.json"
        path.write_text(json.dumps(case.problem, indent=1, sort_keys=True) + "\n")
        paths.append(str(path))
    return time.perf_counter() - start, starobs, cli, workloads, cases, paths


def request(cli, argv):
    """One CLI call: (exit code or None if it raised, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # an uncaught exception is a failed request
            return None, "", f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def closed_loop(cli, workloads, cases, paths, seconds, speed, tracer=None) -> dict:
    """Send requests back to back, in whole passes, for about `seconds`.

    Whole passes keep every problem class at its fixed share of the
    samples, so the quantiles fall in the same class on every seed.  The
    loop stops at the pass boundary nearest to `seconds`, after at least
    one pass.  Counts are taken from the tracer after the first pass.
    """
    argvs = [case.argv(path) for case, path in zip(cases, paths)]
    first_hash: list[str] = []
    spans: list[tuple[float, float, float]] = []  # start, end, latency less probes
    counts: dict = {}
    tally = {"attempted": 0, "failed": 0, "unexpected": 0, "decided": 0, "nondeterministic": 0}
    failures: dict[str, str] = {}
    passes = 0
    i = 0
    with speed:
        start = time.perf_counter()
        while True:
            k = i % len(cases)
            t0, c0 = time.perf_counter(), speed.clock()
            code, out, err = request(cli, argvs[k])
            spans.append((t0, time.perf_counter(), speed.clock() - c0))
            case = cases[k]
            report = json.loads(out) if code == 0 else None
            ok, decided, reason = workloads.judge(case, code, report)
            rendered = out if code == 0 else f"exit {code}: {err}"
            digest = hashlib.sha256(rendered.encode("utf-8")).hexdigest()
            if passes == 0:
                first_hash.append(digest)
            elif digest != first_hash[k]:
                tally["nondeterministic"] += 1
            tally["attempted"] += 1
            tally["decided"] += decided
            if not ok:
                tally["failed"] += 1
                tally["unexpected"] += case.defect is None
                failures[case.label] = reason
            i += 1
            if i % len(cases) == 0:
                passes += 1
                if passes == 1 and tracer is not None:
                    counts = tracer.snapshot()
                elapsed = time.perf_counter() - start
                if elapsed + 0.5 * elapsed / passes >= seconds:
                    break
    return {
        "latencies": [t for _, _, t in spans],
        "scaled": [t * speed.rate(t0, t1) for t0, t1, t in spans],
        "counts": counts,
        "elapsed": elapsed,
        "probe_median_s": statistics.median(speed.durations),
        "passes": passes,
        "pass_size": len(cases),
        "tally": tally,
        "failures": failures,
        "digest": hashlib.sha256("".join(first_hash).encode("ascii")).hexdigest(),
    }


def child(args) -> dict:
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        before = probe()
        setup_s, starobs, cli, workloads, cases, paths = setup(args.workload, args.seed, workdir)
        setup_scaled = setup_s * 2 * PROBE_REF_S / (before + probe())
        if args.role == "setup":
            return {"setup_s": setup_scaled, "setup_wall_s": setup_s}
        speed, tracer = SpeedSampler(), None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer(clock=speed.clock)
            tracer.install(starobs)
        try:
            run = closed_loop(cli, workloads, cases, paths, args.seconds, speed, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        run.update(
            setup_s=setup_scaled,
            setup_wall_s=setup_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            # layer times per pass, at the run's mean reference-second rate
            rate = sum(run["scaled"]) / sum(run["latencies"])
            run["times"] = {k: v * rate / run["passes"] for k, v in tracer.times().items()}
            run["hook_errors"] = sorted(tracer.hook_errors)
        return run
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# -- parent: orchestration and metrics ---------------------------------------------


def spawn(args, role: str, seconds: float, trace: int, deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--trace", str(trace),
        "--role", role,
    ]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{role} child exceeded the run limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{role} child failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile of a sample."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))]


def oracle_fractions(run: dict) -> dict:
    tally = run["tally"]
    return {
        "failed_frac": tally["failed"] / tally["attempted"],
        "decided_frac": tally["decided"] / tally["attempted"],
    }


def end_to_end(args, deadline) -> tuple[dict, dict, dict]:
    setups = [spawn(args, "setup", 0, 0, deadline) for _ in range(SETUP_SAMPLES - 1)]
    run = spawn(args, "run", args.seconds, 0, deadline)
    setups.append(run)
    lat, wall = run["scaled"], run["latencies"]
    values = {
        "problems_per_s": len(lat) / sum(lat),
        "latency_p50_s": statistics.median(lat),
        "latency_p90_s": quantile(lat, 0.9),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    detail = {
        "samples": len(lat),
        "samples_beyond_p90": sum(1 for x in lat if x > values["latency_p90_s"]),
        "wall": {
            "problems_per_s": len(wall) / run["elapsed"],
            "latency_p50_s": statistics.median(wall),
            "latency_p90_s": quantile(wall, 0.9),
            "setup_s": statistics.median(s["setup_wall_s"] for s in setups),
            "probe_median_s": run["probe_median_s"],
        },
        **oracle_fractions(run),
    }
    return values, run, detail


def per_layer(args, deadline) -> tuple[dict, dict, dict]:
    half = args.seconds / 2
    plain = spawn(args, "run", half, 0, deadline)
    traced = spawn(args, "run", half, 1, deadline)
    values = dict(traced["counts"])
    values.update(traced["times"])
    rows = values.get("linsolve.solve_sparse.rows", 0)
    values["linsolve.solve_sparse.pivot_rows_frac"] = (
        values.get("linsolve.solve_sparse.rank", 0) / rows if rows else 0.0
    )
    per_pass_plain = sum(plain["scaled"]) / plain["passes"]
    per_pass_traced = sum(traced["scaled"]) / traced["passes"]
    values["trace_overhead_frac"] = per_pass_traced / per_pass_plain - 1.0
    values.update(oracle_fractions(traced))
    detail = {"counters": traced["counts"], "untraced_digest": plain["digest"]}
    if traced["hook_errors"]:
        print(f"warning: counters stopped for {traced['hook_errors']}", file=sys.stderr)
    if plain["digest"] != traced["digest"]:
        traced["tally"]["nondeterministic"] += 1
    return values, traced, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role is not None:
        print(json.dumps(child(args)))
        return 0
    if not (SRC / "starobs" / "__init__.py").is_file():
        print(f"error: no starobs sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            values, run, detail = per_layer(args, deadline)
            wanted = spec["per_layer"]
        else:
            values, run, detail = end_to_end(args, deadline)
            wanted = spec["end_to_end"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"warning: no such layer or counter, reported as 0: {missing}", file=sys.stderr)
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    tally = run["tally"]
    detail.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "digest": run["digest"],
            "passes": run["passes"],
            "pass_size": run["pass_size"],
            "known_defect_failures": tally["failed"] - tally["unexpected"],
            "failures": run["failures"],
            "nondeterministic": tally["nondeterministic"],
        }
    )
    print(json.dumps({"detail": detail}, sort_keys=True))
    correct = tally["unexpected"] == 0 and tally["nondeterministic"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally["attempted"],
                "failed": tally["unexpected"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
