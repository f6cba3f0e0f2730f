"""Digests of every benchmark job's report, to check that a refactor keeps them.

    python3 scripts/report_digest.py --src src [--seeds 101 102] [--passes 0 1] [--per-job]
                                     [--traced]

Imports ``levislice`` from the given ``src`` directory and runs, in this
process, every job that ``perfbench/jobs.py`` makes for the given seeds and
passes, for each of the three workloads, and then ``levislice verify``.  It
prints one sha256 per workload and one for ``verify``, each over the exit
code, stdout and stderr of its jobs in order; ``--per-job`` also prints each
job's digest and one digest per ``verify`` suite, to find where two runs
differ.  ``--traced`` first installs the layer spans of ``perfbench/spans.py``,
as ``perfbench/run.py --trace 1`` does, so that a span counter that raises, or
a traced report that differs, shows as a changed digest.  Job configs are
written to a temporary directory, so nothing is written in the checkout.

Run it once with the ``src`` of each of two checkouts and compare the lines.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def call(main, command: str, config, path: str) -> list:
    """``[rc, stdout, stderr]`` of one CLI call, its config written to path."""
    argv = [command]
    if config is not None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        argv += ["--config", path]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return [rc, out.getvalue(), err.getvalue()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the levislice package")
    parser.add_argument("--seeds", type=int, nargs="+", default=[101, 102])
    parser.add_argument("--passes", type=int, nargs="+", default=[0, 1])
    parser.add_argument("--per-job", action="store_true",
                        help="print each job's and each verify suite's digest")
    parser.add_argument("--traced", action="store_true",
                        help="run the jobs under perfbench's span tracer")
    args = parser.parse_args(argv)

    src = Path(args.src).resolve()
    if not (src / "levislice" / "cli.py").is_file():
        print(f"no levislice sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(PERFBENCH)]
    import jobs
    from levislice import cli

    main = cli.main
    if args.traced:
        import spans

        tracer = spans.Tracer()
        main = spans.install(tracer)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "job.json")
        for workload in jobs.WORKLOADS:
            total = hashlib.sha256()
            count = 0
            for seed in args.seeds:
                for pass_idx in args.passes:
                    for slot in range(jobs.pass_size(workload)):
                        job = jobs.make_job(workload, seed, pass_idx, slot)
                        if args.traced:
                            tracer.job = count
                        digest = sha256(json.dumps(call(main, job.command, job.config, path)))
                        total.update(digest.encode())
                        count += 1
                        if args.per_job:
                            print(f"  {digest}  {workload} seed {seed} pass {pass_idx} "
                                  f"slot {slot}: {job.label}")
            print(f"{total.hexdigest()}  {workload} ({count} jobs)")
        result = call(main, "verify", None, path)
        if args.per_job and result[1]:
            for suite in json.loads(result[1])["suites"]:
                print(f"  {sha256(json.dumps(suite, sort_keys=True))}  verify suite "
                      f"{suite['name']}")
        print(f"{sha256(json.dumps(result))}  verify")
    return 0


if __name__ == "__main__":
    sys.exit(main())
