"""msrcode benchmark: run one workload through the msrcode CLI, check every
output byte, and print the metrics.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; commands run with PYTHONPATH=src.
--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 also
runs every command through tracer.py, alternating traced and untraced
rounds, and reports per-layer metrics plus the tracing overhead.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; its metrics are the ones BENCHMARK.json
lists for the mode.  Scratch files go to .perfbench/work (removed at exit);
the full report of the last run of each workload stays in
.perfbench/<workload>.json.  Exit status: 0 when every command ran and
left correct bytes, 1 when one did not, 2 when the checkout has no msrcode
sources or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import spans as spanlib
from workloads import WORKLOADS, Round, Session, Workload

DEADLINE_S = 170        # hard stop for a whole run, well inside 180 s
# init runs per benchmark run (at least, at most) and the time after which no
# more start: cheap inits give setup_s a median of 9, the slow certify one 3
SETUP_RUNS = (3, 9)
SETUP_BUDGET_S = 3.0
CODE_KEYS = ("q", "t", "m", "reduction_poly", "c0")


def run_workload(wl: Workload, sess: Session, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run one traced warm-up round, then timed rounds for
    `seconds` (alternating untraced and traced ones when tracing)."""
    rng = random.Random(seed)
    wl.prepare(sess, rng)
    sess.store.mkdir(parents=True)
    code: dict[str, int] = {}

    def same_code(child) -> str | None:
        chosen = {key: sess.manifest()[key] for key in CODE_KEYS}
        code.setdefault("chosen", chosen)
        if chosen != code["chosen"]:
            return f"init chose {chosen}, an earlier init chose {code['chosen']}"
        return None

    inits, traced_inits = [], []
    began = time.monotonic()
    while sess.failed == 0 and (len(inits) < SETUP_RUNS[0] or (
            len(inits) < SETUP_RUNS[1] and time.monotonic() - began < SETUP_BUDGET_S)):
        for traced in (False, True) if trace else (False,):
            child, _ = sess.command([*wl.init_args, "--out-dir", str(sess.store)],
                                    check=same_code, traced=traced)
            (traced_inits if traced else inits).append(child)
    if sess.failed == 0:
        wl.after_init(sess, rng)
    rounds: list[Round] = []
    traced_rounds: list[Round] = []
    if sess.failed == 0:
        wl.round(sess, rng, traced=True)         # warm-up; also the outside counts
    start = time.monotonic()
    last = 0.0
    while sess.failed == 0 and (not rounds or time.monotonic() - start + last <= seconds):
        began = time.monotonic()
        rounds.append(wl.round(sess, rng, traced=False))
        if trace:
            traced_rounds.append(wl.round(sess, rng, traced=True))
        last = time.monotonic() - began
        if time.monotonic() + 2 * last > sess.deadline:
            break

    result = {
        "code": code.get("chosen"),
        "attempted": sess.attempted,
        "failed": sess.failed,
        "failures": sess.failures,
        "samples": {
            "init_s": [c.wall_s for c in inits],
            "rounds": [[(c.args[0], round(c.wall_s, 6), round(c.rss_MB, 1))
                        for c in r.children] for r in rounds],
        },
        "end_to_end": {},
        "per_layer": {},
    }
    if sess.failed:
        return result        # no number from a run that left wrong bytes
    e2e = {
        "setup_s": (median(c.wall_s for c in inits), "s"),
        "round_s": (per_command(min, rounds), "s"),
        "round_median_s": (per_command(median, rounds), "s"),
        "round_rss_MB": (median(r.rss_MB for r in rounds), "MiB"),
    }
    e2e.update(wl.metrics(rounds))
    result["end_to_end"] = e2e
    if trace:
        samples = [spanlib.layer_metrics([traced_inits[j % len(traced_inits)], *r.children])
                   for j, r in enumerate(traced_rounds)]
        per_layer = {name: (median(s[name][0] for s in samples), unit)
                     for name, (_, unit) in sorted(samples[0].items())}
        init_overhead = (median(c.wall_s for c in traced_inits)
                         - median(c.wall_s for c in inits))
        round_overhead = median(t.wall_s - u.wall_s for u, t in zip(rounds, traced_rounds))
        per_layer["trace.overhead_s"] = (init_overhead + round_overhead, "s")
        per_layer["trace.overhead_share"] = (
            (init_overhead + round_overhead) / (e2e["setup_s"][0] + e2e["round_median_s"][0]),
            "share")
        result["per_layer"] = per_layer
    return result


def per_command(stat, rounds: list[Round]) -> float:
    """`stat` of each timed command's wall times over the rounds, summed over
    one round.  round_s uses the minimum: load from outside the sandbox
    only ever adds time, and across runs a command's fastest time spreads
    far less than its median does."""
    return sum(stat(r.children[i].wall_s for r in rounds)
               for i in range(len(rounds[0].children)))


def environment(root: Path, seed: int, wl: Workload) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "msrcode").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, check=False)
        commit = got.stdout.strip() or None
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
        "seed": seed,
        **wl.inputs(),
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report_lines(wl: Workload, result: dict, env: dict, trace: bool) -> list[str]:
    lines = [f"msrcode perfbench  workload={wl.name}  trace={int(trace)}",
             "environment: " + json.dumps(env)]
    if result["code"]:
        lines.append("init chose: " + " ".join(f"{k}={v}" for k, v in result["code"].items()))
    lines.append(f"commands: {result['attempted']} attempted, {result['failed']} failed; "
                 f"{len(result['samples']['rounds'])} timed rounds, "
                 f"{len(result['samples']['init_s'])} init runs")
    lines += [f"FAILED: {f}" for f in result["failures"]]
    refs = wl.references()
    rows = dict(result["end_to_end"])
    rows["failed_ops"] = (result["failed"] / max(result["attempted"], 1), "share")
    for name, (value, unit) in rows.items():
        note = refs.get(name, "")
        lines.append(f"  {name:<28} {_fmt(value):>12} {unit:<7} {note}".rstrip())
    for name, (value, unit) in result["per_layer"].items():
        lines.append(f"  {name:<36} {_fmt(value):>12} {unit}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "msrcode" / "cli.py").is_file():
        print(f"error: no msrcode sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_dir = root / ".perfbench"
    work = out_dir / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = WORKLOADS[args.workload]()
    env = environment(root, args.seed, wl)
    sess = Session(root, work, time.monotonic() + DEADLINE_S)
    try:
        result = run_workload(wl, sess, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_after"] = os.getloadavg()

    computed = {**result["end_to_end"], **result["per_layer"]}
    correct = result["failed"] == 0
    metrics = {}
    if correct:
        missing = [m["name"] for m in listed if m["name"] not in computed]
        if missing:
            print(f"error: metrics not computed: {', '.join(missing)}", file=sys.stderr)
            return 2
        metrics = {m["name"]: {"value": computed[m["name"]][0], "unit": m["unit"]}
                   for m in listed}
    for line in report_lines(wl, result, env, bool(args.trace)):
        print(line)
    (out_dir / f"{wl.name}.json").write_text(json.dumps(
        {"environment": env, "references": wl.references(), **result}, indent=1, default=list))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
