"""One worker interpreter: import the CLI, warm up, then run job passes.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE WORKDIR

MODE is ``setup`` (import and warm up only), ``run`` (timed passes),
``trace`` (timed passes with layer spans) or ``repeat`` (pass 0 only, with
spans, to check that counters repeat).  The worker prints ``ready`` once the
warm-up job has finished and ``done PEAK_RSS_MB`` at the end.  Each job's
report is appended to WORKDIR/jobs-MODE.jsonl between jobs, so the worker's
memory holds no more than the program's; the runner checks them afterwards.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

sys.dont_write_bytecode = True

import levislice.cli as cli  # noqa: E402

import jobs  # noqa: E402
import spans  # noqa: E402

# A run stops at the first pass boundary with at least SECONDS of job time
# and the workload's minimum number of passes, so that the runner can take
# each slot's best of several timings.  MAX_JOB_SECONDS keeps a run inside
# the time limit if the program slows down.
MAX_JOB_SECONDS = 110.0


def _signal(word: str) -> None:
    sys.__stdout__.write(word + "\n")
    sys.__stdout__.flush()


def _run(main, job, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(job.config, fh)
    out, err = io.StringIO(), io.StringIO()
    exc_text = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([job.command, "--config", path])
        except Exception as exc:  # noqa: BLE001 - a raising job is a failed job
            code, exc_text = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    return {"rc": code, "wall": wall, "out": out.getvalue(),
            "err": err.getvalue() or exc_text}


def main(argv):
    workload, seed, seconds, mode, workdir = argv
    seed, seconds = int(seed), float(seconds)
    tracer = spans.Tracer() if mode in ("trace", "repeat") else None
    entry = spans.install(tracer) if tracer else cli.main

    warm = _run(entry, jobs.warmup_job(workload, seed),
                os.path.join(workdir, f"warmup-{os.getpid()}.json"))
    if warm["rc"] != 0:
        sys.stderr.write(f"warm-up job failed: rc={warm['rc']} {warm['err']}\n")
        return 1
    _signal("ready")
    if mode == "setup":
        return 0
    if tracer:
        tracer.reset()

    size = jobs.pass_size(workload)
    count, total, pass_idx = 0, 0.0, 0
    with open(os.path.join(workdir, f"jobs-{mode}.jsonl"), "w", encoding="utf-8") as log:
        while True:
            for slot in range(size):
                job = jobs.make_job(workload, seed, pass_idx, slot)
                if tracer:
                    tracer.job = count
                record = _run(entry, job, os.path.join(workdir, f"job-{slot}.json"))
                record.update({"pass": pass_idx, "slot": slot})
                log.write(json.dumps(record) + "\n")
                count += 1
                total += record["wall"]
            pass_idx += 1
            if mode == "repeat" or total >= MAX_JOB_SECONDS:
                break
            if total >= seconds and pass_idx >= jobs.MIN_PASSES[workload]:
                break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.dump(os.path.join(workdir, f"spans-{mode}.jsonl"))
    _signal(f"done {peak_rss_mb!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
