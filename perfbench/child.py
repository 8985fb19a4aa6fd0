"""One measured pass, run in a fresh interpreter by ``run.py``.

    python3 perfbench/child.py --src SRC --result FILE --workdir DIR
        [--workload NAME --seed N] [--trace] [--setup-only]

Set-up (imports, the built-in catalog and the stabilizer chains of all
its entries) is timed from the first line of this file.  Then every job
of the workload runs once through ``rankgraph.cli.cli_main`` with
``--seed`` and ``--out`` appended; each job parses its own arguments and
builds its own catalog objects, as a separate invocation would.  The
child writes timings, exit codes and the ``--out`` contents to
``--result``; ``run.py`` checks the answers.

Without ``--trace`` a ``speed.Speedometer`` runs for the whole child, and
the set-up and the pass are also given in reference seconds (``*_ref``);
a traced child runs without it, so that the kernel's time does not land
in the self time of a traced call.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from speed import Speedometer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _setup(src: str):
    sys.path.insert(0, src)
    import rankgraph
    import rankgraph.cli  # noqa: F401  (imports what a CLI run imports)
    if os.path.dirname(os.path.abspath(rankgraph.__file__)) != \
            os.path.join(os.path.abspath(src), "rankgraph"):
        raise SystemExit(f"rankgraph imported from {rankgraph.__file__}, "
                         f"not from {src}")
    from rankgraph.catalog import default_catalog
    for entry in default_catalog():
        entry.group()
    return time.perf_counter()


def _read_out(path: str, jsonl: bool):
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        if jsonl:
            return [json.loads(line) for line in fh if line.strip()]
        return json.load(fh)


def _run_pass(workload: str, seed: int, workdir: str, meter) -> dict:
    import rankgraph.cli as cli
    spec = WORKLOADS[workload]
    jsonl = spec["kind"] == "sweep"
    jobs = []
    t_pass = time.perf_counter()
    for i, argv in enumerate(spec["jobs"]):
        out = os.path.join(workdir, f"job{i}.json")
        full = list(argv) + ["--seed", str(seed), "--out", out]
        rc, error = None, None
        t0 = time.perf_counter()
        try:
            rc = cli.cli_main(full)
        except Exception:  # a crash is a failed job, reported by run.py
            error = traceback.format_exc(limit=5)
        t1 = time.perf_counter()
        jobs.append({"argv": argv, "rc": rc, "error": error, "out": out,
                     "elapsed_s": t1 - t0, "window": (t0, t1)})
    t_end = time.perf_counter()
    for job in jobs:
        window = job.pop("window")
        job["out"] = _read_out(job["out"], jsonl)
        if meter is not None:
            job["ref_s"] = meter.rescale(*window)
    result = {"pass_s": t_end - t_pass, "jobs": jobs}
    if meter is not None:
        result["pass_ref"] = meter.rescale(t_pass, t_end)
    return result


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    meter = None
    if not args.trace:
        meter = Speedometer()
        meter.install()
    t_setup = _setup(args.src)
    result = {"setup_s": t_setup - T_START}
    if meter is not None:
        result["setup_ref"] = meter.rescale(T_START, t_setup)
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        result.update(_run_pass(args.workload, args.seed, args.workdir,
                                meter))
        if tracer is not None:
            result["trace"] = tracer.report()
    if meter is not None:
        meter.uninstall()
        result["speed"] = meter.mean_speed()
    result["rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
