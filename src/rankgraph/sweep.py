"""Connectivity verification sweeps over a catalog.

Each record captures, per group and per d in the policy, the streaming
connectivity summary of Delta_d.  A disconnected Delta_d with
d >= max(3, d(G)), or a disconnected Delta_2, is a CRITICAL flag: the
connectivity theorems predict none, so any such flag fails the run.

Records are JSON lines; reruns with the same catalog, policy and seed are
byte-identical apart from the dedicated timing fields (timestamp,
elapsed_ms).
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from . import __version__, config
from .perm_core import CapExceededError
from .catalog import CatalogEntry
from .graphs import GraphVerdict, delta_summary
from .group_structure import min_rank


@dataclass
class SweepRecord:
    group_id: str
    order: int
    degree: int
    d_min: Optional[int]  # d(G); None when the entry was skipped
    skipped: Optional[str]  # reason, e.g. "cyclic" or "over max-order"
    graphs: list
    critical: list
    error: Optional[str]
    elapsed_ms: int
    tool_version: str
    seed: int
    timestamp: float  # isolated so diffs can ignore it

    def to_json(self) -> str:
        out = dict(self.__dict__)
        out["graphs"] = [g.__dict__ for g in self.graphs]
        return json.dumps(out, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "SweepRecord":
        raw = json.loads(line)
        raw["graphs"] = [GraphVerdict(**g) for g in raw["graphs"]]
        return cls(**raw)


# -- d policies ---------------------------------------------------------------


def d_policy_default(d_min: int) -> list:
    """{2 if d(G) = 2} plus max(3, d(G)) .. d(G) + 1."""
    out = [2] if d_min == 2 else []
    out.extend(range(max(3, d_min), d_min + 2))
    return sorted(set(out))


def d_policy_theorem(d_min: int) -> list:
    """{max(3, d(G)), max(3, d(G)) + 1}: the rank-connectivity range."""
    lo = max(3, d_min)
    return [lo, lo + 1]


def d_policy_conjecture(d_min: int) -> list:
    """Just d = 2 for 2-generated groups."""
    return [2] if d_min == 2 else []


D_POLICIES = {
    "default": d_policy_default,
    "theorem": d_policy_theorem,
    "conjecture": d_policy_conjecture,
}


def resolve_policy(policy) -> Callable:
    """A d policy from a name in D_POLICIES or ("range", lo, hi).

    Names and range specs pickle, so they reach sweep worker processes
    unchanged.  A range needs 2 <= lo <= hi, else ``ValueError``.
    """
    if isinstance(policy, tuple) and len(policy) == 3 and \
            policy[0] == "range":
        _, lo, hi = policy
        if lo < 2:
            raise ValueError(f"d must be at least 2, got {lo}")
        if hi < lo:
            raise ValueError(f"d range {lo}..{hi} is empty")
        return lambda d_min: list(range(lo, hi + 1))
    try:
        return D_POLICIES[policy]
    except KeyError:
        raise ValueError(
            f"unknown d policy {policy!r}; available: {sorted(D_POLICIES)}")


# -- the sweep ---------------------------------------------------------------

# Prefix of the error of a record skipped at a resource cap; any other
# error is an unexpected failure.
CAP_ERROR = "cap exceeded: "


def sweep_entry(entry: CatalogEntry, policy="default",
                with_diameter: bool = False, seed: int = 0) -> SweepRecord:
    """Analyze one catalog entry; errors are captured, not raised."""
    t0 = time.perf_counter()
    policy_fn = resolve_policy(policy)
    G = entry.group()
    record = SweepRecord(entry.id, G.order, entry.degree, None, None, [], [],
                         None, 0, __version__, seed, time.time())
    try:
        cert = min_rank(G)
        if cert.d <= 1:
            record.skipped = "cyclic"
        else:
            record.d_min = cert.d
            for d in policy_fn(cert.d):
                g0 = time.perf_counter()
                verdict = delta_summary(G, d, with_diameter)
                verdict.elapsed_ms = int((time.perf_counter() - g0) * 1000)
                record.graphs.append(verdict)
                if not verdict.connected and (d >= max(3, cert.d) or d == 2):
                    record.critical.append(
                        f"disconnected Delta_{d} ({verdict.n_components} "
                        "components)")
    except CapExceededError as e:
        record.error = f"{CAP_ERROR}{e}"
    except Exception as e:  # per-entry isolation: one failure never aborts
        record.error = f"{type(e).__name__}: {e}"
    G.release_dense_caches()
    record.elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return record


def _install_caps(parent_caps: config.Limits) -> None:
    """Worker initializer: the parent's caps, whatever the start method."""
    config.LIMITS = parent_caps


def _sweep_worker(args) -> str:
    raw, policy, with_diameter, seed = args
    entry = CatalogEntry(id=raw["id"], degree=raw["degree"],
                         generators=raw["generators"])
    return sweep_entry(entry, policy, with_diameter, seed).to_json()


def sweep(entries: Sequence[CatalogEntry], max_order: Optional[int] = None,
          policy="default", with_diameter: bool = False, jobs: int = 1,
          seed: int = 0, skip_ids: Iterable[str] = (),
          on_record: Optional[Callable[[SweepRecord], None]] = None) -> list:
    """Sweep the catalog; singleton errors are recorded, never fatal.

    Entries above ``max_order`` and ids in ``skip_ids`` (resume support)
    are skipped with an explicit record.  With jobs > 1 the entries are
    distributed over worker processes; record order follows the catalog.
    ``on_record`` receives each record in that order as soon as it and
    every record before it are done.
    """
    skip = set(skip_ids)
    plan = []  # per swept entry: its over-max-order record, or None
    todo = []
    for entry in entries:
        if entry.id in skip:
            continue
        order = entry.group().order
        if max_order is not None and order > max_order:
            plan.append(SweepRecord(entry.id, order, entry.degree, None,
                                    "over max-order", [], [], None, 0,
                                    __version__, seed, time.time()))
        else:
            plan.append(None)
            todo.append(entry)
    pool = None
    if jobs <= 1 or len(todo) <= 1:
        results = (sweep_entry(e, policy, with_diameter, seed) for e in todo)
    else:
        args = [(e.to_dict(), policy, with_diameter, seed) for e in todo]
        # the pool starts all its workers at once, so never more than the
        # entries need
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(todo)),
                                   initializer=_install_caps,
                                   initargs=(config.LIMITS,))
        results = map(SweepRecord.from_json, pool.map(_sweep_worker, args))
    records = []
    try:
        for rec in plan:
            if rec is None:
                rec = next(results)
            records.append(rec)
            if on_record is not None:
                on_record(rec)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return records


def cap_skipped(records: Iterable[SweepRecord]) -> list:
    """Group ids of the records skipped at a resource cap."""
    return [rec.group_id for rec in records
            if rec.error and rec.error.startswith(CAP_ERROR)]


def load_records(path) -> list:
    """The records of a JSON-lines file, [] if there is none; a line that
    is not a record raises ``ValueError`` naming ``path:line``."""
    out = []
    if not os.path.exists(path):
        return out
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            if line.strip():
                try:
                    out.append(SweepRecord.from_json(line))
                except (KeyError, TypeError, ValueError) as e:
                    raise ValueError(
                        f"{path}:{number}: not a sweep record "
                        f"({type(e).__name__}: {e})") from e
    return out


def critical_flags(records: Iterable[SweepRecord]) -> list:
    out = []
    for rec in records:
        for flag in rec.critical:
            out.append((rec.group_id, flag))
    return out


def unexpected_errors(records: Iterable[SweepRecord]) -> list:
    """(group id, error) of every record that failed other than at a cap."""
    return [(rec.group_id, rec.error) for rec in records
            if rec.error and not rec.error.startswith(CAP_ERROR)]
