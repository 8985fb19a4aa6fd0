"""rankgraph benchmark: one workload, measured end to end or traced.

    python3 perfbench/run.py --workload {sweep-gen,sweep-rank,crown}
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; the program is imported from
``src/`` of that checkout (it need not be installed).  Each pass over a
workload's jobs runs in a fresh child process (``child.py``), one child
at a time.  The seed reaches the program only as ``--seed``.

``--trace 0`` runs passes until the next one would end after ``--seconds``
(at least ``MIN_PASSES``) and reports the end-to-end metrics: the pass
time (each job's median over the passes, summed over the jobs) and the
median set-up time (four set-up-only children plus
every pass child), both in reference seconds (see ``speed.py``), and the
median peak RSS of the pass children.
``--trace 1`` runs one plain pass and one traced pass and reports the
per-layer metrics of the traced pass, the tracing overhead, and the
slowest job of the plain pass.

Every answer is checked against ``reference.json``; a wrong answer is a
failed job, like a crash.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
trace of a ``--trace 1`` run is written to ``.perfbench_work/``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import WORKLOADS, check_pass, load_reference

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5
# Passes of a --trace 0 run, at the least, whatever --seconds says.
MIN_PASSES = 3
# Every run ends well inside the 180 s a run may take.
RUN_BUDGET_S = 170.0


class ChildFailed(RuntimeError):
    pass


def run_child(root, workdir, deadline, workload=None, seed=0, trace=False,
              setup_only=False) -> dict:
    result_path = os.path.join(workdir, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--src", os.path.join(root, "src"), "--result", result_path,
           "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    else:
        cmd += ["--workload", workload, "--seed", str(seed)]
        if trace:
            cmd.append("--trace")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("out of time before starting a child")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"child did not finish within {timeout:.0f} s")
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise ChildFailed(f"child exited with {proc.returncode}:\n"
                          f"{proc.stderr[-3000:]}")
    with open(result_path) as fh:
        result = json.load(fh)
    result["child_s"] = time.monotonic() - t0
    return result


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(report: dict, traced_s: float, plain_s: float) -> dict:
    totals = report["totals"]

    def get(name, key="self_s"):
        return totals.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in ("perm_core.CayleyTable", "group_structure.close",
                 "group_structure.join", "group_structure.dist_to_full",
                 "graphs.delta_summary", "crown_powers.crown_generates",
                 "crown_powers.cln_witness"):
        out[name + ".calls"] = metric(get(name, "calls"), "count")
        out[name + ".self_s"] = metric(get(name), "s")
    out["perm_core.CayleyTable.cells"] = metric(
        get("perm_core.CayleyTable", "cells"), "count")
    out["perm_core.StabilizerChain.calls"] = metric(
        get("perm_core.StabilizerChain", "calls"), "count")
    out["perm_core.StabilizerChain.self_s"] = metric(
        get("perm_core.StabilizerChain")
        + get("perm_core.StabilizerChain.add_generator"), "s")
    out["group_structure.join.miss_ratio"] = metric(
        ratio(get("group_structure.close", "calls"),
              get("group_structure.join", "calls")), "ratio")
    pairs = get("graphs.delta_summary", "pairs")
    out["graphs.pairs_tested"] = metric(pairs, "count")
    out["graphs.edge_yield"] = metric(
        ratio(get("graphs.delta_summary", "edges"), pairs), "ratio")
    out["automorphisms.orbits_on_tuples.tuples"] = metric(
        get("automorphisms.orbits_on_tuples", "tuples"), "count")
    out["crown_powers.omega_yield"] = metric(
        ratio(get("crown_powers.omega_table", "omega"),
              get("crown_powers.omega_table", "space")), "ratio")
    for name in ("group_structure.min_rank",
                 "automorphisms.automorphism_group",
                 "automorphisms.x_subgroup",
                 "automorphisms.orbits_on_tuples",
                 "crown_powers.omega_table",
                 "crown_powers.build_crown_power",
                 "crown_powers.weak_connectivity",
                 "crown_powers.weak_connectivity_sampled",
                 "sweep.sweep_entry", "verify.run_verifier",
                 "cli.cli_main"):
        out[name + ".self_s"] = metric(get(name), "s")
    self_total = sum(t["self_s"] for t in totals.values())
    out["trace.coverage"] = metric(ratio(self_total, traced_s), "ratio")
    out["trace.overhead_ratio"] = metric(ratio(traced_s, plain_s) - 1.0,
                                         "ratio")
    return dict(sorted(out.items()))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rankgraph", "cli.py")):
        print(f"error: no rankgraph sources under {root}/src; run from the "
              "root of a rankgraph checkout", file=sys.stderr)
        return 2
    reference = load_reference()
    base = os.path.join(root, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)

    passes = []
    setups = []
    trace_report = None
    try:
        if args.trace:
            passes.append(run_child(root, workdir, deadline, args.workload,
                                    args.seed))
            passes.append(run_child(root, workdir, deadline, args.workload,
                                    args.seed, trace=True))
            trace_report = passes[-1].pop("trace")
        else:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_child(root, workdir, deadline,
                                        setup_only=True))
            t_passes = time.monotonic()
            while True:
                passes.append(run_child(root, workdir, deadline,
                                        args.workload, args.seed))
                spent = time.monotonic() - t_passes
                if (len(passes) >= MIN_PASSES
                        and spent + passes[-1]["child_s"] > args.seconds):
                    break
            setups += passes
    except ChildFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = failed = 0
    max_jobs = []
    for p in passes:
        a, f, problems, max_job_s = check_pass(args.workload, p,
                                               reference, args.seed)
        attempted += a
        failed += f
        max_jobs.append(max_job_s)
        for msg in problems[:20]:
            print(f"FAILED {msg}")

    if args.trace:
        plain_s, traced_s = passes[0]["pass_s"], passes[1]["pass_s"]
        metrics = layer_metrics(trace_report, traced_s, plain_s)
        metrics["max_job_s"] = metric(max_jobs[0], "s")
        if trace_report["absent"]:
            print("absent entry points (reported as 0): "
                  + ", ".join(trace_report["absent"]))
        if trace_report["extras_failed"]:
            print("counters not readable (reported as 0): "
                  + ", ".join(trace_report["extras_failed"]))
        path = os.path.join(base, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "plain_s": plain_s, "traced_s": traced_s,
                       "metrics": metrics, **trace_report}, fh)
        print(f"trace written to {path}")
    else:
        # Each job's median over the passes, summed over the jobs.
        pass_ref_s = sum(
            statistics.median(p["jobs"][i]["ref_s"] for p in passes)
            for i in range(len(passes[0]["jobs"])))
        metrics = {
            "pass_ref_s": metric(pass_ref_s, "s"),
            "setup_s": metric(
                statistics.median(s["setup_ref"] for s in setups), "s"),
            "peak_rss_mb": metric(
                statistics.median(p["rss_mb"] for p in passes), "MB"),
        }
        # Wall-clock figures and the measured speed, for reading only.
        for label, runs, key, unit in (
                ("pass_s (wall, not gated)", passes, "pass_s", "s"),
                ("setup_s (wall, not gated)", setups, "setup_s", "s"),
                ("speed vs reference (not gated)", setups, "speed", "x")):
            value = statistics.median(r[key] for r in runs)
            print(f"{args.workload:10s} {label:48s} {value:>14.6g} {unit}")
        print(f"{args.workload:10s} {'pass_ref_s of each pass':48s} "
              + " ".join(f"{p['pass_ref']:.4g}" for p in passes))
        print(f"{args.workload:10s} {'max_job_s (not gated)':48s} "
              f"{statistics.median(max_jobs):>14.6g} s")
    for name, m in metrics.items():
        print(f"{args.workload:10s} {name:48s} {m['value']:>14.6g} {m['unit']}")
    print(f"{args.workload:10s} {'fail_ratio':48s} "
          f"{failed / attempted:>14.6g} ratio ({failed}/{attempted} jobs, "
          f"{len(passes)} pass(es))")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
