#!/usr/bin/env python3
"""Merge and compare bench JSON outputs against BENCH_baseline.json.

Two inputs exist:
  * time_protocol --bench-json  -> {"schema": "p2plb-bench-1",
                                    "timed_rounds": [...]}
  * micro_kernels --benchmark_format=json (google-benchmark's format)

`merge` normalizes any mix of them into one document; `compare` prints a
markdown delta table of a current document against a baseline.  Compare
is report-only by default (CI runners and the baseline machine differ);
--max-regress N fails the run if any metric regresses by more than the
given factor, --fail-above PCT if any metric regresses by more than the
given percentage (report-only jobs omit both).

Malformed input is an error, not a silent skip: a file that is not JSON,
or a native document missing its "schema": "p2plb-bench-1" marker, exits
non-zero naming the file.

Host-time rows (sink == "profile") are report-only: they appear in the
delta table but never feed the worst-ratio gate, since wall-clock
attribution overhead varies with the host and must not fail CI.

A timed round's optional "oracle_fill_seconds" (the distance-oracle row
fill time_protocol runs before its timed loop) is report-only too: the
table shows it, the gate ignores it, and documents that predate it show
"-".

`trajectory` takes a series of bench documents (oldest first, e.g. the
BENCH_*.json snapshots committed one per PR) and prints one column per
snapshot for every timed round and micro kernel, plus the net change
from the first to the last snapshot -- the performance history of the
repo at a glance.  It is always report-only.

Usage:
  bench_delta.py merge timed.json micro.json -o current.json
  bench_delta.py compare --baseline BENCH_baseline.json \
      --current current.json [--max-regress 3.0 | --fail-above 200]
  bench_delta.py trajectory BENCH_baseline.json BENCH_pr10.json ...
"""

import argparse
import json
import sys

SCHEMA = "p2plb-bench-1"


def load(path):
    try:
        with open(path) as f:
            return json.load(f), path
    except OSError as e:
        raise SystemExit(f"bench_delta: cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise SystemExit(f"bench_delta: {path} is not valid JSON: {e}")


def normalize(doc, path):
    """Return (timed_rounds, micro) from either native or gbench format."""
    if "benchmarks" in doc:  # google-benchmark output
        micro = {}
        for b in doc["benchmarks"]:
            if b.get("run_type") == "aggregate":
                continue
            micro[b["name"]] = {
                "ns_per_op": b["real_time"]
                if b.get("time_unit", "ns") == "ns"
                else b["real_time"] * {"us": 1e3, "ms": 1e6, "s": 1e9}[
                    b["time_unit"]
                ],
            }
            if "items_per_second" in b:
                micro[b["name"]]["items_per_second"] = b["items_per_second"]
        return [], micro
    if "timed_rounds" in doc or "micro" in doc:
        schema = doc.get("schema")
        if schema != SCHEMA:
            raise SystemExit(
                f"bench_delta: {path} declares schema {schema!r}, "
                f"expected {SCHEMA!r}")
        return list(doc.get("timed_rounds", [])), dict(doc.get("micro", {}))
    raise SystemExit(f"bench_delta: {path} is not a recognized bench JSON "
                     "document (no \"timed_rounds\", \"micro\" or "
                     "\"benchmarks\" key)")


def merge(paths, out_path):
    rounds, micro = [], {}
    for p in paths:
        r, m = normalize(*load(p))
        rounds.extend(r)
        micro.update(m)
    doc = {"schema": SCHEMA, "timed_rounds": rounds, "micro": micro}
    with open(out_path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"wrote {out_path}: {len(rounds)} timed rounds, "
          f"{len(micro)} micro kernels")


def round_key(r):
    return (r["nodes"], r.get("engine", "wheel"), r.get("sink", "none"))


def fmt_delta(cur, base):
    if base == 0:
        return "n/a"
    ratio = cur / base
    return f"{(ratio - 1) * 100:+.1f}%"


def compare(baseline_path, current_path, max_regress):
    base_rounds, base_micro = normalize(*load(baseline_path))
    cur_rounds, cur_micro = normalize(*load(current_path))
    base_by_key = {round_key(r): r for r in base_rounds}
    worst = 1.0
    worst_name = ""

    print("## Timed rounds (wall seconds; lower is better)\n")
    print("| nodes | engine | sink | baseline | current | delta | "
          "events/sec | oracle fill s |")
    print("|---|---|---|---|---|---|---|---|")
    for r in cur_rounds:
        key = round_key(r)
        b = base_by_key.get(key)
        fill = r.get("oracle_fill_seconds")
        fill_cell = "-" if fill is None else f"{fill:.3f}"
        if b is None:
            print(f"| {key[0]} | {key[1]} | {key[2]} | (new) | "
                  f"{r['wall_seconds']:.3f} | | {r['events_per_sec']:.0f} | "
                  f"{fill_cell} |")
            continue
        ratio = (r["wall_seconds"] / b["wall_seconds"]
                 if b["wall_seconds"] > 0 else 1.0)
        # Profiler rows are report-only: host-time attribution cost is
        # machine-dependent and never gates.
        if ratio > worst and key[2] != "profile":
            worst, worst_name = ratio, f"timed {key[0]}/{key[1]}/{key[2]}"
        print(f"| {key[0]} | {key[1]} | {key[2]} | "
              f"{b['wall_seconds']:.3f} | "
              f"{r['wall_seconds']:.3f} | "
              f"{fmt_delta(r['wall_seconds'], b['wall_seconds'])} | "
              f"{r['events_per_sec']:.0f} | {fill_cell} |")

    print("\n## Micro kernels (ns/op; lower is better)\n")
    print("| kernel | baseline | current | delta |")
    print("|---|---|---|---|")
    for name in sorted(cur_micro):
        cur_ns = cur_micro[name]["ns_per_op"]
        if name not in base_micro:
            print(f"| {name} | (new) | {cur_ns:.1f} | |")
            continue
        base_ns = base_micro[name]["ns_per_op"]
        ratio = cur_ns / base_ns if base_ns > 0 else 1.0
        if ratio > worst:
            worst, worst_name = ratio, name
        print(f"| {name} | {base_ns:.1f} | {cur_ns:.1f} | "
              f"{fmt_delta(cur_ns, base_ns)} |")
    missing = sorted(set(base_micro) - set(cur_micro))
    for name in missing:
        print(f"| {name} | {base_micro[name]['ns_per_op']:.1f} | "
              f"(not run) | |")

    if max_regress is not None and worst > max_regress:
        print(f"\nFAIL: {worst_name} regressed {worst:.2f}x "
              f"(limit {max_regress:.2f}x)", file=sys.stderr)
        return 1
    print(f"\nworst ratio: {worst:.2f}x"
          + (f" ({worst_name})" if worst_name else ""))
    return 0


def snapshot_label(path):
    """BENCH_pr10.json -> pr10; anything else -> basename sans .json."""
    name = path.rsplit("/", 1)[-1]
    if name.endswith(".json"):
        name = name[: -len(".json")]
    if name.startswith("BENCH_"):
        name = name[len("BENCH_"):]
    return name


def trajectory(paths):
    docs = [normalize(*load(p)) for p in paths]
    labels = [snapshot_label(p) for p in paths]

    keys = []
    per_doc_rounds = []
    for rounds, _ in docs:
        by_key = {round_key(r): r for r in rounds}
        per_doc_rounds.append(by_key)
        for k in by_key:
            if k not in keys:
                keys.append(k)

    print("## Timed-round trajectory (wall seconds; lower is better)\n")
    print("| nodes | engine | sink | " + " | ".join(labels) + " | net |")
    print("|---" * (len(labels) + 4) + "|")
    for key in sorted(keys):
        cells, present = [], []
        for by_key in per_doc_rounds:
            r = by_key.get(key)
            if r is None:
                cells.append("-")
            else:
                cells.append(f"{r['wall_seconds']:.3f}")
                present.append(r["wall_seconds"])
        net = (fmt_delta(present[-1], present[0])
               if len(present) >= 2 else "")
        print(f"| {key[0]} | {key[1]} | {key[2]} | "
              + " | ".join(cells) + f" | {net} |")

    names = []
    for _, micro in docs:
        for name in micro:
            if name not in names:
                names.append(name)
    print("\n## Micro-kernel trajectory (ns/op; lower is better)\n")
    print("| kernel | " + " | ".join(labels) + " | net |")
    print("|---" * (len(labels) + 2) + "|")
    for name in sorted(names):
        cells, present = [], []
        for _, micro in docs:
            b = micro.get(name)
            if b is None:
                cells.append("-")
            else:
                cells.append(f"{b['ns_per_op']:.1f}")
                present.append(b["ns_per_op"])
        net = (fmt_delta(present[-1], present[0])
               if len(present) >= 2 else "")
        print(f"| {name} | " + " | ".join(cells) + f" | {net} |")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)
    m = sub.add_parser("merge", help="normalize + merge bench JSON files")
    m.add_argument("inputs", nargs="+")
    m.add_argument("-o", "--out", required=True)
    t = sub.add_parser(
        "trajectory",
        help="print per-snapshot columns across a series of bench JSONs")
    t.add_argument("inputs", nargs="+",
                   help="bench JSON snapshots, oldest first")
    c = sub.add_parser("compare", help="delta a current doc vs a baseline")
    c.add_argument("--baseline", required=True)
    c.add_argument("--current", required=True)
    c.add_argument("--max-regress", type=float, default=None,
                   help="fail if any metric regresses beyond this factor")
    c.add_argument("--fail-above", type=float, default=None, metavar="PCT",
                   help="fail if any metric regresses by more than PCT "
                        "percent (e.g. 200 = 3.0x); report-only jobs omit "
                        "this")
    args = ap.parse_args()
    if args.cmd == "merge":
        merge(args.inputs, args.out)
        return 0
    if args.cmd == "trajectory":
        return trajectory(args.inputs)
    max_regress = args.max_regress
    if args.fail_above is not None:
        from_pct = 1.0 + args.fail_above / 100.0
        max_regress = (from_pct if max_regress is None
                       else min(max_regress, from_pct))
    return compare(args.baseline, args.current, max_regress)


if __name__ == "__main__":
    sys.exit(main())
