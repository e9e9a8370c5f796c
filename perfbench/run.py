"""Benchmark runner for endocert.

    python3 perfbench/run.py --workload groups --seed 1 --seconds 45 --trace 0

Runs the workload's cases in passes.  Each pass launches every case once,
one at a time and in an order shuffled by `--seed`, each in a fresh
interpreter (`case.py`) that makes one `endocert.cli.main` call.  New passes
start while the run's elapsed time plus its longest pass so far fits in
`--seconds`; at least one pass is made.  Every report is checked by
`checks.py` outside the timed region.

With `--trace 0` the last stdout line gives the end-to-end metrics; with
`--trace 1` every case runs untraced and then traced, the two reports must be
byte-identical, and the last line gives the per-layer metrics.  Details go to
perfbench/results/, the spans of a traced run to a .spans.jsonl file there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
from checks import check
from workloads import KNOWN_FAULTS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_LIMIT_S = 170  # a run must end within 180 s


class Abort(Exception):
    pass


def launch(spec: dict, deadline: float) -> dict:
    """Run one case process; its set-up time is measured from the launch."""
    start = time.monotonic()
    with subprocess.Popen(
        [sys.executable, str(BENCH / "case.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT,
    ) as proc:
        try:
            out, err = proc.communicate(json.dumps(spec).encode(), timeout=max(1.0, deadline - start))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise Abort(f"case {spec.get('argv')} did not end before the run's time limit")
    if proc.returncode != 0:
        raise Abort(f"case process {spec.get('argv')} exited {proc.returncode}: {err.decode()[-2000:]}")
    if spec.get("warm_up"):
        return {}
    result = json.loads(out)
    result["setup"] = result["ready"] - start
    return result


def measure(workload: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    cases = WORKLOADS[workload]
    rng = random.Random(seed)
    launch({"warm_up": True}, deadline)  # byte-compile and page in the program once
    runs = {case.id: {"untraced": [], "traced": []} for case in cases}
    attempted = failed = 0
    unexpected = []
    start = time.monotonic()
    passes, longest = 0, 0.0
    while passes == 0 or time.monotonic() - start + longest <= seconds:
        pass_start = time.monotonic()
        order = list(cases)
        rng.shuffle(order)
        for case in order:
            for traced in (False, True) if trace else (False,):
                r = launch({"argv": case.argv, "generators": case.generators, "trace": traced}, deadline)
                problems = check(case, r["exit"], r["report"])
                attempted += 1
                if problems:
                    failed += 1
                    if case.id not in KNOWN_FAULTS:
                        unexpected.append(f"{case.id}: {'; '.join(problems)}")
                r["pass"] = passes
                runs[case.id]["traced" if traced else "untraced"].append(r)
        passes += 1
        longest = max(longest, time.monotonic() - pass_start)

    for message in unexpected:
        print(f"check failed: {message}", file=sys.stderr)
    differing = [cid for cid, r in runs.items()
                 if len({x["report"] for x in r["untraced"] + r["traced"]}) != 1]
    for cid in differing:
        print(f"reports differ between processes: {cid}", file=sys.stderr)
    return {
        "runs": runs, "passes": passes, "attempted": attempted, "failed": failed,
        "correct": not unexpected and not differing,
    }


def end_to_end(cases: list, runs: dict) -> dict:
    medians = [statistics.median(x["wall"] for x in runs[c.id]["untraced"]) for c in cases]
    processes = [x for c in cases for x in runs[c.id]["untraced"]]
    return {
        "cases_per_s": (len(medians) / sum(medians), "1/s"),
        "case_geomean_ms": (1000 * math.exp(statistics.fmean(map(math.log, medians))), "ms"),
        "peak_rss_mb": (max(x["rss_kb"] for x in processes) / 1024, "MB"),
        "setup_s": (statistics.median(x["setup"] for x in processes), "s"),
    }


def per_layer(cases: list, runs: dict) -> tuple[dict, dict, bool]:
    """Per-layer metrics, the layer times in seconds, and whether counts repeat."""
    counts = dict.fromkeys(layers.COUNTS, 0)
    seconds = dict.fromkeys(layers.TIMES, 0.0)
    repeat = True
    untraced_s = traced_s = 0.0
    for case in cases:
        r = runs[case.id]
        per_pass = [layers.figures(x["spans"]) for x in r["traced"]]
        if any(c != per_pass[0][0] for c, _ in per_pass):
            print(f"layer counts differ between passes: {case.id}", file=sys.stderr)
            repeat = False
        for name, value in per_pass[0][0].items():
            counts[name] += value
        for name in seconds:
            seconds[name] += statistics.median(t[name] for _, t in per_pass)
        untraced_s += statistics.median(x["wall"] for x in r["untraced"])
        traced_s += statistics.median(x["wall"] for x in r["traced"])
    metrics = {name: (value, "count") for name, value in counts.items()}
    for name, value in seconds.items():
        metrics[name.removesuffix("_s") + "_pct"] = (100 * value / traced_s, "%")
    metrics["trace.overhead_pct"] = (100 * (traced_s / untraced_s - 1), "%")
    seconds.update({"main.traced_s": traced_s, "main.untraced_s": untraced_s})
    return metrics, seconds, repeat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    # one CPU for this process and every case process it starts: a case that
    # migrates between CPUs mixes their speeds
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (ROOT / "src" / "endocert" / "cli.py").is_file():
        print(f"no endocert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace), deadline)
    except Abort as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return 1

    cases = WORKLOADS[args.workload]
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "passes": m["passes"]}
    correct = m["correct"]
    if args.trace:
        metrics, detail["layer_seconds"], repeat = per_layer(cases, m["runs"])
        correct = correct and repeat
    else:
        metrics = end_to_end(cases, m["runs"])
    detail["cases"] = {
        cid: {kind: [{k: x[k] for k in ("pass", "wall", "setup", "rss_kb")} for x in xs]
              for kind, xs in r.items() if xs}
        for cid, r in m["runs"].items()
    }
    result = {
        "correct": correct,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    detail["result"] = result

    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    if args.trace:
        with open(out_dir / f"{stem}.spans.jsonl", "w") as fh:
            for cid, r in m["runs"].items():
                for x in r["traced"]:
                    for name, start, end, parent, attrs in x["spans"]:
                        fh.write(json.dumps({"case": cid, "pass": x["pass"], "name": name, "start": start,
                                             "end": end, "parent": parent, **attrs}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
