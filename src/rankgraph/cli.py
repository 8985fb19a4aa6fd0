"""Command-line interface.

Subcommands: analyze, sweep, crown, verify, export-dot, catalog.
Exit codes: 0 on success, 1 when a run finds a theorem violation
(CRITICAL sweep flag, failed verification or a WitnessSearchFailure) or
a sweep record holds an unexpected error, 2 on usage, file or resource
errors.
A sweep entry skipped at a resource cap is recorded and does not change
the exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
import tempfile
import time

from . import __version__
from .config import caps
from .perm_core import (
    CapExceededError,
    GroupArgumentError,
    WitnessSearchFailure,
)
from . import catalog as cat
from .catalog import CatalogError
from .graphs import delta_summary, export_dot, graph_kind
from .group_structure import min_rank
from .sweep import (
    cap_skipped,
    critical_flags,
    load_records,
    resolve_policy,
    sweep,
    unexpected_errors,
)
from . import verify


def _entries(args):
    if args.catalog:
        return cat.load_catalog(args.catalog)
    return cat.default_catalog()


def _entry(args, group_id: str):
    """One entry by id; without --catalog only that entry is built."""
    if args.catalog:
        return cat.find_entry(cat.load_catalog(args.catalog), group_id)
    return cat.builtin_entry(group_id)


def _open_out(path):
    """A context giving a file to write ``path`` through, or None without
    a path.  Output files are opened before a run's work, so a path that
    cannot be written fails at once.  The output goes to a temporary file
    in the same directory, which replaces ``path`` when the block ends
    without an exception and is deleted when one escapes, so a failed run
    leaves the old file as it was; a link, a pipe or a device
    (``/dev/stdout``) is written in place."""
    if not path:
        return contextlib.nullcontext()
    if os.path.lexists(path) and (os.path.islink(path)
                                  or not os.path.isfile(path)):
        return open(path, "w")
    return _replacing(path)


@contextlib.contextmanager
def _replacing(path):
    try:
        fd, tmp = tempfile.mkstemp(
            prefix=f".{os.path.basename(path)}.", suffix=".tmp",
            dir=os.path.dirname(path) or ".")
    except OSError as e:
        raise OSError(e.errno, e.strerror, path) from None  # name the path
    try:
        # the mode of a file opened for writing; mkstemp's is 0600
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as out:
            yield out
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _dump(out, payload) -> None:
    if out is not None:
        json.dump(payload, out, indent=1, sort_keys=True)
        out.write("\n")


def _graph_d(args, G) -> int:
    """d from ``--d``, else 2 for the generating graph, else d(G)."""
    if args.d is not None:
        return args.d
    return 2 if args.graph == "generating" else min_rank(G).d


def cmd_analyze(args) -> int:
    if args.graph == "generating" and args.d not in (None, 2):
        raise ValueError(
            f"the generating graph has d = 2, got --d {args.d}")
    entry = _entry(args, args.group)
    G = entry.group()
    with _open_out(args.out) as out, _open_out(args.dot) as dot:
        t0 = time.perf_counter()
        d = _graph_d(args, G)
        stats = dataclasses.asdict(
            delta_summary(G, d, with_diameter=args.diameter))
        del stats["connected"]
        if args.graph == "gamma":
            # each isolated element is a component of diameter 0
            stats["n_components"] += G.order - stats["n_vertices"]
            stats["n_vertices"] = G.order
        elif not stats["n_vertices"]:
            stats["diameter"] = None  # the empty graph has none
        stats.update(group_id=entry.id, kind=graph_kind(d),
                     elapsed_ms=int((time.perf_counter() - t0) * 1000))
        print(f"{entry.id}: |G| = {G.order}, {stats['kind']} graph d={d}: "
              f"{stats['n_vertices']} vertices, {stats['n_edges']} edges, "
              f"{stats['n_components']} component(s)"
              + (f", diameter {stats['diameter']}"
                 if stats["diameter"] is not None else ""))
        _dump(out, stats)
        if dot is not None:
            export_dot(G, d, args.graph == "gamma", dot)
    return 0


def cmd_sweep(args) -> int:
    if args.resume and not args.out:
        raise ValueError("--resume needs --out")
    entries = _entries(args)
    policy = args.d_policy
    if args.d is not None:
        hi = args.d_max if args.d_max is not None else args.d
        policy = ("range", args.d, hi)
    elif args.d_max is not None:
        raise ValueError("--d-max needs --d")
    resolve_policy(policy)  # a bad range is refused before --out is opened
    earlier = []
    if args.resume:
        earlier = load_records(args.out)
        if earlier:
            print(f"resuming: {len(earlier)} group(s) already recorded")
    # each record reaches --out as soon as it is done (the file is line
    # buffered), so an interrupted run can be resumed
    with open(args.out, "a" if args.resume else "w", buffering=1) \
            if args.out else contextlib.nullcontext() as out:
        records = sweep(entries, max_order=args.max_order, policy=policy,
                        with_diameter=args.diameter, jobs=args.jobs,
                        seed=args.seed,
                        skip_ids={rec.group_id for rec in earlier},
                        on_record=(lambda rec: out.write(rec.to_json() + "\n"))
                        if out else None)
    # a resumed run answers for every record in --out, not only its own
    checked = earlier + records
    flags = critical_flags(checked)
    analyzed = sum(1 for r in records if r.graphs)
    errors = unexpected_errors(checked)
    capped = cap_skipped(checked)
    print(f"swept {len(records)} entries ({analyzed} analyzed); "
          f"{len(flags)} CRITICAL flag(s), {len(errors)} error(s), "
          f"{len(capped)} cap-skipped"
          + (f" in {len(checked)} records" if earlier else ""))
    for gid, flag in flags:
        print(f"  CRITICAL {gid}: {flag}")
    for rec in checked:
        if rec.error:
            print(f"  error {rec.group_id}: {rec.error}")
    return 1 if flags or errors else 0


def cmd_crown(args) -> int:
    from .crown_powers import (
        MonolithicGroup, delta_Lt, weak_connectivity,
        weak_connectivity_sampled,
    )
    entry = _entry(args, args.L)
    with _open_out(args.out) as out:
        mono = MonolithicGroup(entry.group())
        t0 = time.perf_counter()
        if args.check == "delta":
            delta, table = delta_Lt(mono, args.t, verify=args.verify_witness)
            payload = {"L": entry.id, "t": args.t, "delta": delta,
                       "orbit_count": delta, "omega": len(table.tuples),
                       "seed": args.seed,
                       "elapsed_ms": int((time.perf_counter() - t0) * 1000)}
            print(f"delta({entry.id}, {args.t}) = {delta} "
                  f"(|Omega| = {len(table.tuples)})")
            _dump(out, payload)
            return 0
        # weak connectivity
        if args.mode == "sampled":
            _, table = delta_Lt(mono, args.t)
            rep = weak_connectivity_sampled(
                mono, args.t, args.eta, table, samples=args.samples,
                seed=args.seed)
        else:
            table = None
            if args.eta > 1:
                _, table = delta_Lt(mono, args.t)
            rep = weak_connectivity(mono, args.t, args.eta, table=table)
        delta = table.orbit_count if table is not None else None
        payload = {"L": entry.id, "t": args.t, "eta": args.eta,
                   "delta": delta, "orbit_count": delta,
                   "weak_connectivity": "pass" if rep.passed else "fail",
                   "witnesses": [dataclasses.asdict(r) for r in rep.rows],
                   "mode": rep.mode, "seed": args.seed,
                   "elapsed_ms": int((time.perf_counter() - t0) * 1000)}
        print(rep.summary())
        _dump(out, payload)
        return 0 if rep.passed else 1


def cmd_verify(args) -> int:
    if args.lemma == "all":
        if args.params:
            raise ValueError("--params needs one suite, not --lemma all")
        lemmas = list(verify.VERIFIERS)
    else:
        lemmas = [args.lemma]
    params = json.loads(args.params) if args.params else {}
    if not isinstance(params, dict):
        raise ValueError(
            f"--params must be a JSON object; {args.lemma} accepts "
            f"{verify.suite_parameters(args.lemma)}")
    reports = []
    with _open_out(args.out) as out:
        for lemma in lemmas:
            rep = verify.run_verifier(lemma, seed=args.seed, **params)
            print(rep.summary())
            for fail in rep.failures[:10]:
                print(f"  failure: {fail}")
            reports.append(rep.to_dict())
        _dump(out, reports if args.lemma == "all" else reports[0])
    return 0 if all(rep["passed"] for rep in reports) else 1


def cmd_export_dot(args) -> int:
    if not args.out:
        raise ValueError("export-dot needs --out")
    entry = _entry(args, args.group)
    G = entry.group()
    with _open_out(args.out) as out:
        n_vertices, n_edges = export_dot(G, _graph_d(args, G),
                                         args.graph == "gamma", out)
    print(f"wrote {n_vertices} vertices / {n_edges} edges to {args.out}")
    return 0


def cmd_catalog(args) -> int:
    with _open_out(args.out) as out:
        entries = [e for e in _entries(args) if args.max_order is None
                   or e.group().order <= args.max_order]
        if out is not None:
            cat.save_catalog(entries, out)
    if args.out:
        print(f"wrote {len(entries)} entries to {args.out}")
    else:
        for e in entries:
            print(f"{e.id}\tdegree {e.degree}\torder {e.group().order}"
                  + (f"\t[{', '.join(e.tags)}]" if e.tags else ""))
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankgraph",
        description="Generating/rank graph connectivity and crown-based "
                    "power verification for small permutation groups.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # the shared flags; each subcommand takes only those it reads
    shared = {
        "--catalog": dict(help="catalog JSON (default: builders)"),
        "--seed": dict(type=int, default=42),
        "--cap-elements": dict(type=_positive_int,
                               help="override the element enumeration cap"),
    }

    def common(p, *flags, out):
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        p.add_argument("--out", help=out)

    p = sub.add_parser("analyze", help="analyze one group's graph")
    common(p, "--catalog", "--cap-elements",
           out="write the graph statistics here as one JSON object")
    p.add_argument("--group", required=True)
    p.add_argument("--graph", choices=["rank", "generating", "gamma"],
                   default="rank")
    p.add_argument("--d", type=int)
    p.add_argument("--diameter", action="store_true")
    p.add_argument("--dot", help="also write DOT here")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("sweep", help="connectivity sweep over the catalog")
    common(p, "--catalog", "--seed", "--cap-elements",
           out="write the records here as JSON lines, which --resume reads")
    p.add_argument("--max-order", type=_positive_int, default=500)
    p.add_argument("--d-policy", choices=["default", "theorem", "conjecture"],
                   default="default")
    p.add_argument("--d", type=int, help="fixed d range start (overrides policy)")
    p.add_argument("--d-max", type=int)
    p.add_argument("--diameter", action="store_true")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--resume", action="store_true",
                   help="skip group ids already present in --out")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("crown", help="crown-based power checks")
    common(p, "--catalog", "--seed", "--cap-elements",
           out="write the result here as one JSON object")
    p.add_argument("--L", required=True, help="catalog id of the base group")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--eta", type=_positive_int, default=1)
    p.add_argument("--check", choices=["weak-conn", "delta"],
                   default="weak-conn")
    p.add_argument("--mode", choices=["exhaustive", "sampled"],
                   default="exhaustive")
    p.add_argument("--samples", type=_positive_int, default=60)
    p.add_argument("--verify-witness", action="store_true")
    p.set_defaults(fn=cmd_crown)

    p = sub.add_parser("verify", help="run a named verification suite")
    common(p, "--seed", "--cap-elements",
           out="write the report here as JSON (a list for --lemma all)")
    p.add_argument("--lemma", required=True,
                   help="suite id, or 'all' for every suite in turn")
    p.add_argument("--params", help="JSON dict of verifier parameters")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("export-dot", help="write a graph as DOT")
    common(p, "--catalog", "--cap-elements",
           out="write the graph here in DOT (required)")
    p.add_argument("--group", required=True)
    p.add_argument("--graph", choices=["rank", "gamma"], default="rank")
    p.add_argument("--d", type=int)
    p.set_defaults(fn=cmd_export_dot)

    # catalogs are read at the default element cap
    p = sub.add_parser("catalog", help="list or export a catalog")
    common(p, "--catalog", out="write the catalog here as catalog JSON")
    p.add_argument("--max-order", type=_positive_int)
    p.set_defaults(fn=cmd_catalog)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors already; version/help exit 0
        return int(e.code or 0)
    cap_elements = getattr(args, "cap_elements", None)
    cap = {} if cap_elements is None else {"max_elements": cap_elements}
    try:
        with caps(**cap):
            return args.fn(args)
    except (CatalogError, GroupArgumentError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CapExceededError as e:
        print(f"resource cap: {e}", file=sys.stderr)
        return 2
    except WitnessSearchFailure as e:
        print(f"theorem violation: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
