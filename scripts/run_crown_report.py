#!/usr/bin/env python3
"""Crown-based power experiment: orbit counts, witness verification and
weak connectivity for the small monolithic groups.

Writes one JSON report per (L, t, eta) configuration.

Usage:
    python scripts/run_crown_report.py [--out crown_reports.json] [--seed S]
"""

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rankgraph.catalog import alternating, psl2, symmetric
from rankgraph.crown_powers import (
    MonolithicGroup,
    delta_Lt,
    t_locally_connected,
    weak_connectivity_sampled,
)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="crown_reports.json")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--eta2-samples", type=int, default=60)
    args = ap.parse_args()

    reports = []

    # delta(A5, 2) with its witness certified by the subdirect-product lemma
    t0 = time.perf_counter()
    A5 = MonolithicGroup.from_group(alternating(5).group(), "A5")
    delta, table, crown, witness = delta_Lt(A5, 2, verify=True)
    reports.append({
        "L": "A5", "t": 2, "eta": None, "delta": delta,
        "orbit_count": delta, "omega": len(table.tuples),
        "witness_verified": True, "crown_degree": crown.degree,
        "seed": args.seed,
        "elapsed_ms": int((time.perf_counter() - t0) * 1000)})
    print(f"delta(A5, 2) = {delta}; witness generates the degree-"
          f"{crown.degree} power")

    # weak connectivity across all generating patterns, eta = 1
    for name, entry in (("A5", alternating(5)), ("PSL(2,7)", psl2(7)),
                        ("S5", symmetric(5))):
        t0 = time.perf_counter()
        mono = MonolithicGroup.from_group(entry.group(), name)
        ok, pattern_reports = t_locally_connected(mono, 3, 1)
        reports.append({
            "L": name, "t": 3, "eta": 1, "delta": None, "orbit_count": None,
            "weak_connectivity": "pass" if ok else "fail",
            "patterns": len(pattern_reports),
            "witnesses": [dataclasses.asdict(r.rows[0])
                          for r in pattern_reports[:1]],
            "seed": args.seed,
            "elapsed_ms": int((time.perf_counter() - t0) * 1000)})
        print(f"{name}: t=3 eta=1 weak connectivity "
              f"{'pass' if ok else 'FAIL'} over {len(pattern_reports)} "
              "pattern(s)")

    # A5, eta = 2, sampled
    t0 = time.perf_counter()
    delta3, table3 = delta_Lt(A5, 3)
    rep = weak_connectivity_sampled(A5, 3, 2, table3,
                                    samples=args.eta2_samples,
                                    seed=args.seed)
    reports.append({
        "L": "A5", "t": 3, "eta": 2, "delta": delta3, "orbit_count": delta3,
        "weak_connectivity": "pass" if rep.passed else "fail",
        "mode": "sampled", "samples": rep.sample_size, "seed": args.seed,
        "elapsed_ms": int((time.perf_counter() - t0) * 1000)})
    print(f"A5: t=3 eta=2 sampled ({rep.sample_size} pairs) "
          f"{'pass' if rep.passed else 'FAIL'}; delta(A5,3) = {delta3}")

    with open(args.out, "w") as fh:
        json.dump(reports, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(reports)} reports to {args.out}")
    return 0 if all(r.get("weak_connectivity", "pass") == "pass"
                    for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
