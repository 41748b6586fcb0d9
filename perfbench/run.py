"""Benchmark of the latticegas toolkit.

    python3 perfbench/run.py --workload cli --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --self-check

One workload per run (see workloads.py and README.md). With --trace 0 the
last stdout line carries the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer metrics. `--workload all` runs every workload
untraced and prints one table; `--self-check` runs each workload at its
minimal size, checks that every metric of BENCHMARK.json is emitted with
its unit, and shows that a corrupted expected output is counted as failed.

Run it from the root of a checkout: it imports latticegas from ./src and
exits 2 without a result when that is missing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads as W

SETUP_REPEATS = 5  # set-ups per run; setup_s is their median
RUN_LIMIT_S = 170  # a run must end within 180 s


class HarnessError(Exception):
    """The benchmark could not produce a result."""


def git_commit() -> str:
    """The checked-out commit, read from .git without running git; the
    benchmark's checkout may not be a repository at all."""
    git = W.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(workload: str, seed: int, seconds: float, mode: str, size: str, deadline: float,
          corrupt: bool = False) -> dict:
    cmd = [sys.executable, str(W.HERE / "workloads.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode, "--size", size]
    if corrupt:
        cmd.append("--corrupt")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise HarnessError(f"no time left for the {workload} {mode} process")
    try:
        proc = subprocess.run(cmd, env=W.child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{workload} {mode} process ran past the {RUN_LIMIT_S} s limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"{workload} {mode} process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
                 corrupt: bool = False) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    deadline = time.monotonic() + RUN_LIMIT_S
    load_before = os.getloadavg()
    setups = [spawn(workload, seed, seconds, "setup", size, deadline) for _ in range(SETUP_REPEATS - 1)]
    main = spawn(workload, seed, seconds, "traced" if trace else "plain", size, deadline, corrupt)
    setups.append(main)
    results = [main]
    if trace:
        results += [spawn(other, seed, seconds, "probe", size, deadline)
                    for other in W.WORKLOADS if other != workload]
    if trace:
        measured = {}
        for r in results:
            measured.update(r["layers"])
    else:
        measured = dict(main, setup_s=statistics.median(r["setup_s"] for r in setups))
    units = metric_units("per_layer" if trace else "end_to_end")
    missing = [name for name in units if measured.get(name) is None]
    if missing:
        raise HarnessError(f"no value measured for {missing}")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": measured[name], "unit": unit} for name, unit in units.items()},
        "_report": {
            "workload": workload,
            "seed": seed,
            "passes": main["passes"],
            "fail_frac": failed / attempted,
            "errors": [e for r in results for e in r["errors"]],
            "self_time": {r["workload"]: r["self_time"] for r in results if "self_time" in r},
            "setup_s_samples": [r["setup_s"] for r in setups],
            "raw": {"wall_s": main["wall_raw_s"], "setup_s": statistics.median(r["setup_raw_s"] for r in setups),
                    "pass_scales": main["scales"]},
            "env": dict(main["env"], commit=git_commit(), load_before=load_before,
                        load_after=os.getloadavg()),
        },
    }


def metric_units(kind: str) -> dict:
    """Name -> unit of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    with open(W.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def emit(result: dict) -> None:
    """Readable lines first; the last line is the JSON object without the report."""
    report = result.pop("_report")
    print(f"# env {json.dumps(report['env'])}")
    print(f"# workload {report['workload']} seed {report['seed']}, {report['passes']} passes, "
          f"setup_s samples {report['setup_s_samples']}")
    for name, m in result["metrics"].items():
        print(f"# {name:34s} {m['value']:>16.6g} {m['unit']}")
    raw = report["raw"]
    print(f"# unscaled: wall_s {raw['wall_s']:.6g} s, setup_s {raw['setup_s']:.6g} s; "
          f"pass scales {[round(x, 4) for x in raw['pass_scales']]}")
    for workload, spans in report["self_time"].items():
        for name, agg in sorted(spans.items(), key=lambda kv: -kv[1]["self_ms"]):
            print(f"# self time {workload:7s} {name:34s} {agg['count']:6d} calls "
                  f"{agg['total_ms']:12.1f} ms total {agg['self_ms']:12.1f} ms self")
    print(f"# fail_frac {report['fail_frac']:.6g} ({result['failed']} of {result['attempted']} ops)")
    for err in report["errors"]:
        print(f"# error: {err}")
    print(json.dumps(result))


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, one table: the end-to-end view of the toolkit."""
    rows = []
    for workload in W.WORKLOADS:
        res = run_workload(workload, seed, seconds, trace=False)
        report = res.pop("_report")
        rows.append((workload, res, report))
        for err in report["errors"]:
            print(f"# {workload} error: {err}")
    units = dict(metric_units("end_to_end"), fail_frac="1")
    print("# " + "workload".ljust(10) + "".join(f"{f'{n} [{u}]':>20s}" for n, u in units.items()))
    for workload, res, report in rows:
        vals = [res["metrics"][n]["value"] for n in units if n != "fail_frac"] + [report["fail_frac"]]
        print("# " + workload.ljust(10) + "".join(f"{v:>20.6g}" for v in vals))
    print(json.dumps({w: res for w, res, _ in rows}))
    return 0 if all(res["correct"] for _, res, _ in rows) else 1


def self_check() -> int:
    """Minimal-size runs: every metric named in BENCHMARK.json is emitted with
    its unit, the seed code passes every check, and a corrupted expectation
    is counted as failed."""
    want = {"0": metric_units("end_to_end"), "1": metric_units("per_layer")}
    problems = []
    for workload in W.WORKLOADS:
        for trace in ("0", "1") if workload == "search" else ("0",):
            res = run_workload(workload, 1, 1, trace == "1", size="min")
            got = {n: m["unit"] for n, m in res["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{workload} trace {trace}: metrics {sorted(set(got) ^ set(want[trace]))} "
                                f"or units differ from BENCHMARK.json")
            if not res["correct"] or res["failed"]:
                problems.append(f"{workload} trace {trace}: {res['failed']} failed: {res['_report']['errors']}")
            print(f"# {workload} trace {trace}: {len(got)} metrics, {res['attempted']} ops, {res['failed']} failed")
        bad = run_workload(workload, 1, 1, False, size="min", corrupt=True)
        frac = bad["_report"]["fail_frac"]
        print(f"# {workload} with one corrupted expectation: fail_frac {frac:.4g} "
              f"({bad['failed']} of {bad['attempted']})")
        if bad["correct"] or bad["failed"] < 1:
            problems.append(f"{workload}: the corrupted expectation was not counted")
    for p in problems:
        print(f"# self-check problem: {p}")
    print(json.dumps({"self_check": not problems}))
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description="latticegas benchmark")
    ap.add_argument("--workload", choices=sorted(W.WORKLOADS) + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()

    missing = [p for p in (W.SRC / "latticegas" / "__init__.py", W.GOLDEN / "force_extremes.json",
                           W.ROOT / "BENCHMARK.json") if not p.exists()]
    if missing:
        print(f"error: run from the root of a latticegas checkout; missing {missing[0]}", file=sys.stderr)
        return 2
    try:
        if args.self_check:
            return self_check()
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        emit(run_workload(args.workload, args.seed, args.seconds, bool(args.trace)))
        return 0
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
