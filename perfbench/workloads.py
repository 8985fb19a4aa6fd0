"""The benchmark's workloads and the checks on their answers.

Each workload is a list of ``rankgraph`` command lines.  ``run.py`` adds
``--seed`` and ``--out``.  The reference answers in ``reference.json``
were taken at the commit that introduced this benchmark; the crown
anchors are independent of the code: delta(A5, 2) = 19 is P. Hall's
1936 value, and |Omega| = delta * |X| because X = C_Aut(L)(L/N) acts
freely on generating tuples, with |X| = |Aut(A5)| = 120 and
|X| = |PGL(2,7)| = 336 for PSL(2,7) and PGL(2,7).
"""

import json
import os

WORKLOADS = {
    # Delta_2 and Delta_3 of every non-cyclic catalog group up to order 360
    # (PSL(2,9), A6, PGL(2,7), Dih100, PSL(2,7), S5, ...).
    "sweep-gen": {"kind": "sweep", "jobs": [
        ["sweep", "--max-order", "360", "--d-policy", "default",
         "--jobs", "1"],
    ]},
    # Delta_3 and Delta_4 only: the join memo is filled by d >= 3 tests and
    # dist_to_full does the work.
    "sweep-rank": {"kind": "sweep", "jobs": [
        ["sweep", "--max-order", "360", "--d-policy", "theorem",
         "--jobs", "1"],
    ]},
    # Aut search, Omega tables, Schreier-Sims and crown-graph checks.
    "crown": {"kind": "commands", "jobs": [
        ["crown", "--L", "A5", "--t", "2", "--check", "delta",
         "--verify-witness"],
        ["crown", "--L", "PSL(2,7)", "--t", "2", "--check", "delta"],
        ["crown", "--L", "PSL(2,7)", "--t", "3", "--eta", "1",
         "--check", "weak-conn"],
        ["crown", "--L", "A5", "--t", "2", "--eta", "1", "--check",
         "weak-conn", "--mode", "sampled", "--samples", "20"],
        ["verify", "--lemma", "primo", "--params",
         '{"random_samples":100,"exhaustive_slice":500}'],
        ["verify", "--lemma", "cln", "--params",
         '{"group_ids":["A5","S5"]}'],
    ]},
}


def load_reference() -> dict:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "reference.json")
    with open(path) as fh:
        return json.load(fh)


def job_key(argv) -> str:
    return " ".join(argv)


def matches(expected, actual) -> bool:
    """``actual`` holds every key of ``expected`` with an equal value.

    Dicts match key by key (extra keys in ``actual`` are allowed, so new
    fields such as counters do not break the check); lists match element
    by element and must have the same length.
    """
    if isinstance(expected, dict):
        return isinstance(actual, dict) and all(
            k in actual and matches(v, actual[k])
            for k, v in expected.items())
    if isinstance(expected, list):
        return (isinstance(actual, list) and len(actual) == len(expected)
                and all(matches(e, a) for e, a in zip(expected, actual)))
    return type(expected) is type(actual) and expected == actual


def _job_failed(job) -> str:
    if job["error"] is not None:
        return "raised: " + job["error"].strip().splitlines()[-1]
    if job["rc"] != 0:
        return f"exit code {job['rc']}"
    if job["out"] is None:
        return "wrote no --out file"
    return ""


def check_sweep(job, reference, seed):
    """Compare sweep records with the reference; one record is one job."""
    problems = []
    ref_records = reference["records"]
    broken = _job_failed(job)
    if broken:
        return len(ref_records), len(ref_records), [broken], None
    got = {rec.get("group_id"): rec for rec in job["out"]}
    failed = 0
    for ref in ref_records:
        rec = got.pop(ref["group_id"], None)
        why = None
        if rec is None:
            why = "missing"
        elif rec.get("error"):
            why = f"error {rec['error']}"
        elif rec.get("critical"):
            why = f"CRITICAL {rec['critical']}"
        elif rec.get("seed") != seed:
            why = f"seed {rec.get('seed')} != {seed}"
        elif not matches(ref, rec):
            why = "differs from the reference"
        if why:
            failed += 1
            problems.append(f"{ref['group_id']}: {why}")
    for gid in got:
        failed += 1
        problems.append(f"{gid}: not in the reference")
    attempted = len(ref_records) + len(got)
    slowest = max((rec.get("elapsed_ms", 0) for rec in job["out"]),
                  default=0) / 1000.0
    return attempted, failed, problems, slowest


def check_command(job, reference, seed):
    """Check one crown or verify command against its reference answer."""
    broken = _job_failed(job)
    if broken:
        return broken
    out = job["out"]
    if out.get("seed") != seed:
        return f"seed {out.get('seed')} != {seed}"
    if not matches(reference["expect"], out):
        return "differs from the reference"
    x_order = reference.get("x_order")
    if x_order is not None and out.get("omega") != out.get("delta") * x_order:
        return (f"|Omega| = {out.get('omega')} != delta * |X| = "
                f"{out.get('delta')} * {x_order}")
    return ""


def check_pass(workload, child, reference, seed):
    """(attempted, failed, problems, max_job_s) for one pass."""
    spec = WORKLOADS[workload]
    ref = reference[workload]
    attempted = failed = 0
    problems = []
    max_job_s = 0.0
    for job in child["jobs"]:
        key = job_key(job["argv"])
        if spec["kind"] == "sweep":
            a, f, p, slowest = check_sweep(job, ref[key], seed)
            attempted += a
            failed += f
            problems += [f"{key}: {msg}" for msg in p]
            max_job_s = max(max_job_s, slowest or job["elapsed_s"])
        else:
            attempted += 1
            why = check_command(job, ref[key], seed)
            if why:
                failed += 1
                problems.append(f"{key}: {why}")
            max_job_s = max(max_job_s, job["elapsed_s"])
    return attempted, failed, problems, max_job_s
