#!/usr/bin/env python3
"""End-to-end benchmark runner for p2plb.

Builds bench_e2e/p2plb_bench, runs workloads one process at a time,
checks every operation's outcome digest, and prints every metric by name
with its unit.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

    python3 bench_e2e/run.py                          # all workloads x 5 processes
    python3 bench_e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench_e2e/run.py --json out.json          # also save every sample
    python3 bench_e2e/run.py compare A.json B.json    # parent A vs change B
    python3 bench_e2e/run.py smoke                    # 1/64-size self-check

Run it from the repository root.  See bench_e2e/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "p2plb_bench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PINNED = json.loads((HERE / "pinned.json").read_text())

WORKLOADS = [w["name"] for w in SPEC["workloads"]]
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
SETUP_PARTS = ["topo.generate_s", "topo.oracle_fill_s", "workload.ring_build_s",
               "lb.proximity_map_s", "lb.round_ctor_s", "ktree.maint.bootstrap_s"]
CHILD_TIMEOUT_S = 170
MIN_PROCESSES = 2


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure once, then bring p2plb_bench up to date (exits on failure)."""
    if not (ROOT / "CMakeLists.txt").exists() or not (ROOT / "src").is_dir():
        log("run.py: the repository sources are missing; nothing to build")
        sys.exit(2)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "p2plb_bench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("run.py: build failed:", " ".join(cmd))
            sys.exit(2)


def run_process(workload, seed, traced, nodes_div=1):
    """One p2plb_bench process: its parsed record, or None on failure."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--nodes-div", str(nodes_div)] + (["--traced"] if traced else [])
    t0 = time.monotonic()
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} seed {seed} timed out")
        return None, time.monotonic() - t0
    if p.returncode != 0:
        log(f"run.py: {workload} seed {seed} failed: {p.stderr.strip()}")
        return None, time.monotonic() - t0
    return json.loads(p.stdout), time.monotonic() - t0


def summary(values):
    """Median, quartiles, min/max and n of a list of samples."""
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": values[0], "max": values[-1], "n": len(values)}


class Result:
    """Every process and operation of one workload in one invocation."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.processes = []  # parsed p2plb_bench records
        self.lost_processes = 0
        self.elapsed = 0.0
        self.attempted = self.failed = 0
        self.digest = None  # the most common digest observed

    def add(self, record, seconds):
        self.elapsed += seconds
        if record is None:
            self.lost_processes += 1
        else:
            self.processes.append(record)

    def finish(self):
        """Count operations; an operation fails when its process failed,
        or when its digest differs from the pin (pinned seed) or from the
        most common digest (any other seed)."""
        ops_per_process = len(self.processes[0]["ops"]) if self.processes else 1
        digests = [op["digest"] for p in self.processes for op in p["ops"]]
        if digests:
            self.digest = max(digests, key=digests.count)
        expected = PINNED.get(self.workload, {}).get(str(self.seed), self.digest)
        lost = self.lost_processes * ops_per_process
        self.attempted = len(digests) + lost
        self.failed = sum(1 for d in digests if d != expected) + lost

    def ops(self, traced):
        return [op for p in self.processes if p["traced"] == traced for op in p["ops"]]

    def samples(self, per_process=False):
        """End-to-end samples from the untraced processes: one per
        operation, or with `per_process` one per process (the median of
        its operations, the unit `compare` pairs on).  A metric the
        process reports itself (memory) is always one per process."""
        out = {m: [] for m in E2E}
        for p in self.processes:
            if p["traced"]:
                continue
            for m, values in out.items():
                if m in p:
                    values.append(p[m])
                elif per_process:
                    values.append(statistics.median(op["layer"][m] for op in p["ops"]))
                else:
                    values.extend(op["layer"][m] for op in p["ops"])
        return out

    def layer_metrics(self):
        """Per-layer medians: the numbers only traced operations report
        from those, the rest from untraced ones, digest counts as they
        are."""
        out = {}
        untraced, traced = self.ops(0), self.ops(1)
        for ops in (traced, untraced):  # untraced last: it wins shared keys
            for key in ops[0]["layer"] if ops else []:
                if key not in E2E:
                    out[key] = statistics.median(op["layer"][key] for op in ops)
        for op in untraced[:1] + traced[:1]:
            out.update(op["digest"])
        if untraced and traced:
            base = statistics.median(op["layer"]["run_s"] for op in untraced)
            traced_run = statistics.median(op["layer"]["run_s"] for op in traced)
            out["trace.overhead_frac"] = (traced_run - base) / base
        return out


def run_workloads(workloads, seed, seconds, repeat, trace):
    """Interleave processes over the workloads, one at a time.  With
    `seconds`, each workload gets that much wall time (at least
    MIN_PROCESSES processes); otherwise `repeat` processes each.  With
    `trace`, untraced and traced processes alternate."""
    results = {w: Result(w, seed) for w in workloads}
    turn = {w: 0 for w in workloads}

    def wants_more(r):
        n = turn[r.workload]
        if seconds is None:
            return n < repeat * (2 if trace else 1)
        if n < MIN_PROCESSES * (2 if trace else 1):
            return True
        return r.elapsed + r.elapsed / n <= seconds  # next one fits the budget

    while True:
        pending = [r for r in results.values() if wants_more(r)]
        if not pending:
            break
        for r in pending:
            traced = 1 if trace and turn[r.workload] % 2 == 1 else 0
            turn[r.workload] += 1
            r.add(*run_process(r.workload, seed, traced))
    for r in results.values():
        r.finish()
    return results


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report(results, trace):
    """Print every metric by name and unit; return the final JSON line:
    end-to-end medians untraced, per-layer metrics traced (keys prefixed
    with the workload when several ran)."""
    metrics = {}
    correct = True
    for w, r in results.items():
        prefix = "" if len(results) == 1 else w + "."
        print(f"== {w}  seed {r.seed}  processes {len(r.processes)}  "
              f"ops {r.attempted}  failed {r.failed}")
        print("   (median and quartiles over n samples; too few for a tail percentile)")
        for m, values in r.samples().items():
            if not values:
                continue
            s = summary(values)
            unit = E2E[m]["unit"]
            print(f"   {m:<14} {fmt(s['median']):>12} {unit:<4} q1 {fmt(s['q1'])} "
                  f"q3 {fmt(s['q3'])} min {fmt(s['min'])} max {fmt(s['max'])} n {s['n']}")
            if not trace:
                metrics[prefix + m] = {"value": s["median"], "unit": unit}
        if trace:
            layer = r.layer_metrics()
            for spec in SPEC["per_layer"]:
                name, unit = spec["name"], spec["unit"]
                if name not in layer:
                    print(f"   {name:<28} missing")
                    correct = False
                    continue
                print(f"   {name:<28} {fmt(layer[name]):>14} {unit}")
                metrics[prefix + name] = {"value": layer[name], "unit": unit}
    attempted = sum(r.attempted for r in results.values())
    failed = sum(r.failed for r in results.values())
    return {"correct": correct and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def save(results, path):
    out = {}
    for w, r in results.items():
        out[w] = {"seed": r.seed, "attempted": r.attempted, "failed": r.failed,
                  "digest": r.digest,
                  "samples": r.samples(), "process_samples": r.samples(per_process=True),
                  "summary": {m: summary(v) for m, v in r.samples().items() if v},
                  "layer": r.layer_metrics()}
    Path(path).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def compare(path_a, path_b):
    """Parent A vs change B per workload and end-to-end metric.  The
    processes of A and B pair in order.  A gain needs B to win 9 of 10
    pairs (ties count for neither) and the medians to differ by more
    than A's quartile spread; a regression is B's median worse by more
    than the bound; where A's spread exceeds the bound the verdict is
    unresolved, unless every B sample beats every A sample."""
    a_all, b_all = json.loads(Path(path_a).read_text()), json.loads(Path(path_b).read_text())
    bad = False
    for w in [w for w in WORKLOADS if w in a_all and w in b_all]:
        a, b = a_all[w], b_all[w]
        same = a["digest"] == b["digest"]
        print(f"== {w}  digest {'identical' if same else 'CHANGED'}")
        bad = bad or not same
        for m, spec in E2E.items():
            av, bv = a["process_samples"][m], b["process_samples"][m]
            if not av or not bv:
                continue
            sa, sb = summary(av), summary(bv)
            sign = 1 if spec["better"] == "lower" else -1
            worse = sign * (sb["median"] - sa["median"]) / sa["median"]
            spread = (sa["q3"] - sa["q1"]) / sa["median"]
            pairs = list(zip(av, bv))
            wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
            all_better = all(sign * (y - x) < 0 for x in av for y in bv)
            if spread > spec['bound'] and not all_better:
                verdict = "unresolved"
            elif wins >= 0.9 * len(pairs) and abs(sb["median"] - sa["median"]) > sa["q3"] - sa["q1"]:
                verdict = "gain"
            elif worse > spec['bound']:
                verdict = "REGRESSION"
                bad = True
            else:
                verdict = "within bound"
            print(f"   {m:<13} A {fmt(sa['median'])} [{fmt(sa['q1'])}, {fmt(sa['q3'])}]  "
                  f"B {fmt(sb['median'])} [{fmt(sb['q1'])}, {fmt(sb['q3'])}] {spec['unit']}  "
                  f"worse {worse:+.1%} (bound {spec['bound']:.0%})  wins {wins}/{len(pairs)}  {verdict}")
    return 1 if bad else 0


def smoke():
    """Each workload at 1/64 of its nodes, untraced then traced: both
    processes succeed (so no loop Dijkstra run and every invariant held),
    every digest is identical, and the setup parts sum to setup_s."""
    ok = True
    for w in WORKLOADS:
        records = [run_process(w, 1, traced, nodes_div=64)[0] for traced in (0, 1)]
        if None in records:
            print(f"{w}: FAIL (process failed)")
            ok = False
            continue
        digests = [op["digest"] for rec in records for op in rec["ops"]]
        problems = []
        if any(d != digests[0] for d in digests):
            problems.append("digests differ")
        for op in records[0]["ops"]:
            parts = sum(op["layer"][k] for k in SETUP_PARTS)
            if abs(parts - op["layer"]["setup_s"]) > 0.02 * op["layer"]["setup_s"]:
                problems.append(f"setup parts {parts:.6f} s vs setup_s {op['layer']['setup_s']:.6f} s")
        print(f"{w}: {'FAIL ' + '; '.join(problems) if problems else 'ok'}")
        ok = ok and not problems
    return 0 if ok else 1


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            sys.exit("usage: run.py compare A.json B.json")
        return compare(argv[1], argv[2])
    if argv[:1] == ["smoke"]:
        build()
        return smoke()
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="run only this workload (repeatable; default all)")
    ap.add_argument("--seed", type=int, default=1,
                    help="input seed; seeds without a pinned digest are checked "
                         "for equal digests across operations instead")
    ap.add_argument("--seconds", type=float,
                    help="wall time per workload (overrides --repeat)")
    ap.add_argument("--repeat", type=int, default=5, help="processes per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: alternate traced processes and report per-layer metrics")
    ap.add_argument("--json", help="also write every sample to this file")
    args = ap.parse_args(argv)
    build()
    results = run_workloads(args.workload or WORKLOADS, args.seed, args.seconds,
                            args.repeat, args.trace)
    line = report(results, args.trace)
    if args.json:
        save(results, args.json)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
