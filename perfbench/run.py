"""Job benchmark for the levislice CLI.

    python3 perfbench/run.py --workload psh_sweep --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  The runner spawns worker
interpreters (perfbench/worker.py) that import ``levislice`` from ``src/``,
run one untimed warm-up job, then call ``levislice.cli.main`` in a closed loop
with one client on seeded job configs (perfbench/jobs.py).  After the timed
span the runner checks every report (perfbench/oracles.py) and prints one
JSON line: end-to-end metrics with ``--trace 0``, per-layer metrics from a
separate traced run with ``--trace 1``.  BLAS/OpenMP threads are pinned to 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

sys.dont_write_bytecode = True

import jobs  # noqa: E402  (perfbench/, the script's own directory)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

N_SETUPS = 3          # set-up is measured this many times per run; the median is reported
DEADLINE_S = 170.0    # every worker is stopped by then
SPAN_SLACK_S = 1e-9   # float rounding allowed in self times
WALL_SLACK = 0.02     # spans of a job must cover its wall time to 2% (+1 ms)


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


class Worker:
    """One worker process; a timer kills it if it outlives the run's deadline."""

    def __init__(self, args, mode: str, workdir: Path, deadline: float):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
             str(args.seconds), mode, str(workdir)],
            cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
        self.watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), self.proc.kill)
        self.watchdog.start()

    def expect(self, word: str) -> tuple:
        """(seconds from spawn, rest of the line) once the worker printed ``word``."""
        line = self.proc.stdout.readline().split()
        if not line or line[0] != word:
            raise BenchError(f"worker {self.proc.args[5]} ended before {word!r}")
        return time.perf_counter() - self.started, line[1:]

    def stop(self) -> int:
        """Wait for the worker to exit, then release it; returns its exit code."""
        code = self.proc.wait()
        self.watchdog.cancel()
        self.proc.stdout.close()
        return code


def _run_worker(args, mode, workdir, deadline) -> tuple:
    """(set-up seconds, peak RSS in MB or None) of one worker run to its end."""
    worker = Worker(args, mode, workdir, deadline)
    peak = None
    try:
        setup, _ = worker.expect("ready")
        if mode != "setup":
            _, rest = worker.expect("done")
            peak = float(rest[0])
    except BenchError:
        worker.proc.kill()
        raise
    finally:
        code = worker.stop()
    if code != 0:
        raise BenchError(f"worker {mode} exited with {code}")
    return setup, peak


def _records(path: Path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def check_reports(workload, seed, records):
    """(failed, unexpected) job descriptions after checking every report."""
    import oracles  # imports levislice, so only once src/ is on the path

    failed, unexpected = [], []
    for rec in records:
        job = jobs.make_job(workload, seed, rec["pass"], rec["slot"])
        why = oracles.check(job, rec["rc"], rec["out"])
        if why is not None:
            note = f"{job.label} (pass {rec['pass']}): {why}"
            if rec["err"]:
                note += f" [{rec['err'].strip()[:200]}]"
            failed.append(note)
            if not job.expect.get("known_defect"):
                unexpected.append(note)
    return failed, unexpected


# -- end-to-end ------------------------------------------------------------------

def best_walls(records) -> list:
    """Each slot's fastest wall time over the run's passes.

    The host's speed drifts by up to 1.4x over tens of seconds, in CPU time as
    well as in wall time, so pooled timings of one run spread by 15% from run
    to run.  A slot's best pass, as ``timeit`` takes it, spreads far less.
    """
    walls = defaultdict(list)
    for r in records:
        walls[r["slot"]].append(r["wall"])
    return [min(w) for w in walls.values()]


def end_to_end(args, workdir, deadline):
    setups = [_run_worker(args, "setup", workdir, deadline)[0] for _ in range(N_SETUPS - 1)]
    setup, peak = _run_worker(args, "run", workdir, deadline)
    setups.append(setup)
    records = _records(workdir / "jobs-run.jsonl")
    walls = best_walls(records)
    failed, unexpected = check_reports(args.workload, args.seed, records)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "jobs_per_s": (len(walls) / sum(walls), "1/s"),
        "job_ms.p50": (1e3 * statistics.median(walls), "ms"),
        "job_ms.p90": (1e3 * statistics.quantiles(walls, n=10)[8], "ms"),
        "peak_rss_mb": (peak, "MB"),
        "ok_ratio": ((len(records) - len(failed)) / len(records), "ratio"),
    }
    return records, failed, unexpected, metrics, []


# -- traced run ------------------------------------------------------------------

def _spans(path: Path) -> list:
    spans = []
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            try:
                span = json.loads(line)
                ok = span["id"] == i and span["start"] <= span["end"] and span["parent"] < i
            except (ValueError, KeyError, TypeError):
                ok = False
            if not ok:
                raise BenchError(f"malformed span on line {i + 1} of {path.name}")
            spans.append(span)
    return spans


def _self_times(spans) -> list:
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def _pass0_counters(spans, records) -> dict:
    """Counters summed over the jobs of pass 0, which the seed alone determines."""
    counts = defaultdict(int)
    for s in spans:
        if records[s["job"]]["pass"] != 0:
            continue
        counts[s["name"] + ".calls"] += 1
        for key, value in (s.get("counters") or {}).items():
            counts[f"{s['name']}.{key}"] += value
    return dict(counts)


def span_problems(spans, selfs, records) -> list:
    problems = []
    if any(t < -SPAN_SLACK_S for t in selfs):
        problems.append("a span has negative self time")
    covered = defaultdict(float)
    roots = defaultdict(int)
    for s, t in zip(spans, selfs):
        covered[s["job"]] += t
        roots[s["job"]] += s["parent"] < 0 and s["name"] == "cli.main"
    for job, rec in enumerate(records):
        if roots[job] != 1:
            problems.append(f"job {job} has {roots[job]} root spans")
        elif abs(covered[job] - rec["wall"]) > WALL_SLACK * rec["wall"] + 1e-3:
            problems.append(f"job {job}: self times sum to {covered[job]:.4f} s, "
                            f"wall is {rec['wall']:.4f} s")
    return problems[:5]


def per_layer(spans, selfs, records) -> dict:
    dur, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for s, t in zip(spans, selfs):
        dur[s["name"]] += s["end"] - s["start"]
        own[s["name"]] += t
        calls[s["name"]] += 1

    def mean(table, name, scale):
        return scale * table[name] / calls[name] if calls[name] else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    c = defaultdict(int, _pass0_counters(spans, records))
    pass0 = [r for r in records if r["pass"] == 0]
    best = best_walls(records)
    values = {
        "cli.load_config.ms": (mean(dur, "cli.load_config", 1e3), "ms"),
        "cli.emit.ms": (mean(own, "cli.main", 1e3), "ms"),
        "cli.report.bytes": (sum(len(r["out"].encode()) for r in pass0) / len(pass0), "bytes"),
        "funcspace.parse_invariant.calls": (c["funcspace.parse_invariant.calls"], "count"),
        "funcspace.parse_invariant.ms": (mean(dur, "funcspace.parse_invariant", 1e3), "ms"),
        "funcspace.to_slice.calls": (c["funcspace.to_slice.calls"], "count"),
        "funcspace.to_slice.us": (mean(dur, "funcspace.to_slice", 1e6), "us"),
        "funcspace.symmetrized_fns": (c["funcspace.parse_invariant.symmetrized"], "count"),
        "levi.assemble.calls": (c["levi.assemble.calls"], "count"),
        "levi.assemble.self_us": (mean(own, "levi.assemble", 1e6), "us"),
        "model.weyl_reduce.calls": (c["model.weyl_reduce.calls"], "count"),
        "model.weyl_reduce.us": (mean(dur, "model.weyl_reduce", 1e6), "us"),
        "linalg.min_eig.calls": (c["linalg.min_eig.calls"], "count"),
        "linalg.min_eig.us": (mean(dur, "linalg.min_eig", 1e6), "us"),
        "levi.flags.a": (c["levi.assemble.a"], "count"),
        "levi.flags.m_equal": (c["levi.assemble.m_equal"], "count"),
        "levi.flags.m_origin": (c["levi.assemble.m_origin"], "count"),
        "levi.flags.s": (c["levi.assemble.s"], "count"),
        "pshcheck.chamber_grid.ms": (mean(dur, "pshcheck.chamber_grid", 1e3), "ms"),
        "pshcheck.chamber_grid.points": (c["pshcheck.chamber_grid.points"], "count"),
        "pshcheck.chamber_grid.unique_ratio": (
            ratio(c["pshcheck.chamber_grid.points"], c["pshcheck.chamber_grid.cells"]), "ratio"),
        "pshcheck.check_invariant_psh.self_ms": (
            mean(own, "pshcheck.check_invariant_psh", 1e3), "ms"),
        "pshcheck.path.stein_transfer": (
            c["pshcheck.check_invariant_psh.stein_transfer"], "count"),
        "pshcheck.path.direct_all_blocks": (
            c["pshcheck.check_invariant_psh.direct_all_blocks"], "count"),
        "reinhardt.shadow.ms": (mean(dur, "reinhardt.shadow", 1e3), "ms"),
        "reinhardt.shadow.cells": (c["reinhardt.shadow.cells"], "count"),
        "reinhardt.classify_domain.calls": (c["reinhardt.classify_domain.calls"], "count"),
        "reinhardt.classify_domain.ms": (mean(dur, "reinhardt.classify_domain", 1e3), "ms"),
        "reinhardt.is_log_convex.ms": (mean(dur, "reinhardt.is_log_convex", 1e3), "ms"),
        "reinhardt.is_log_convex.cache_ratio": (
            ratio(c["reinhardt.is_log_convex.compute.calls"],
                  c["reinhardt.is_log_convex.calls"]), "ratio"),
        "reinhardt.is_complete.ms": (mean(dur, "reinhardt.is_complete", 1e3), "ms"),
        "reinhardt.is_connected.ms": (mean(dur, "reinhardt.is_connected", 1e3), "ms"),
        "reinhardt.envelope.ms": (mean(dur, "reinhardt.envelope", 1e3), "ms"),
        "reinhardt.envelope.out_boxes": (c["reinhardt.envelope.out_boxes"], "count"),
        "reinhardt.raster.bytes_computed": (
            c["reinhardt.is_log_convex.compute.raster_bytes"], "bytes"),
        "potential.potential_value.calls": (c["potential.potential_value.calls"], "count"),
        "potential.potential_value.us": (mean(dur, "potential.potential_value", 1e6), "us"),
        "potential.moment_coefficient.calls": (
            c["potential.moment_coefficient.calls"], "count"),
        "potential.bergman_identify.ms": (mean(dur, "potential.bergman_identify", 1e3), "ms"),
        "trace.jobs_per_s": (len(best) / sum(best), "1/s"),
    }
    return values


def class_breakdown(spans, selfs, records, workload, seed) -> list:
    """Per job class: mean wall time and the layers with the most self time."""
    labels = [jobs.make_job(workload, seed, r["pass"], r["slot"]).label for r in records]
    wall = defaultdict(list)
    layer = defaultdict(lambda: defaultdict(float))
    for label, rec in zip(labels, records):
        wall[label].append(rec["wall"])
    for s, t in zip(spans, selfs):
        layer[labels[s["job"]]][s["name"]] += t
    lines = []
    for label, ws in wall.items():
        total = sum(ws)
        top = sorted(layer[label].items(), key=lambda kv: -kv[1])[:3]
        shares = ", ".join(f"{name} {100 * t / total:.0f}%" for name, t in top)
        lines.append(f"  {label}: {1e3 * total / len(ws):.1f} ms/job; self time: {shares}")
    return lines


def traced(args, workdir, deadline):
    _run_worker(args, "trace", workdir, deadline)
    _run_worker(args, "repeat", workdir, deadline)
    records = _records(workdir / "jobs-trace.jsonl")
    spans = _spans(workdir / "spans-trace.jsonl")
    selfs = _self_times(spans)
    failed, unexpected = check_reports(args.workload, args.seed, records)
    problems = span_problems(spans, selfs, records)
    repeat = _pass0_counters(_spans(workdir / "spans-repeat.jsonl"),
                             _records(workdir / "jobs-repeat.jsonl"))
    first = _pass0_counters(spans, records)
    if repeat != first:
        diff = sorted(k for k in set(first) | set(repeat) if first.get(k) != repeat.get(k))
        problems.append(f"counters differ between two runs at seed {args.seed}: {diff[:5]}")
    for line in class_breakdown(spans, selfs, records, args.workload, args.seed):
        print(line, file=sys.stderr)
    return records, failed, unexpected, per_layer(spans, selfs, records), problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "levislice" / "cli.py").is_file():
        print(f"no levislice sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    deadline = time.monotonic() + DEADLINE_S
    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = traced if args.trace else end_to_end
        records, failed, unexpected, metrics, problems = run(args, workdir, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    for note in failed[:10]:
        print(f"failed: {note}", file=sys.stderr)
    for note in problems:
        print(f"trace check: {note}", file=sys.stderr)
    print(json.dumps({
        "correct": not unexpected and not problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
