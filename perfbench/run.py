#!/usr/bin/env python3
"""End-to-end benchmark of the paper's pipelines (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds the worker with dune,
writes the workload's inputs as CSV from the seed, then starts child
processes (worker.exe) of S/CHILDREN seconds each until S seconds have
passed. Each child loads the inputs LOADS times and then runs rounds of
the workload. Each child runs under a time and RSS budget, with TSENS_*
and OCAMLRUNPARAM removed from its environment so the program runs at
its defaults. With --trace 0 it reports the medians over all rounds of
the end-to-end metrics; with --trace 1 it alternates untraced and traced
children and reports the per-layer metrics of the traced rounds.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The line before it holds the run's details (statuses, inputs, host).
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in the checkout
import gen  # noqa: E402

WORKER = "_build/default/perfbench/worker.exe"
DATA_ROOT = os.path.join(".bench_build", "perfbench")

# Workload -> (TPC-H scale, whether the Facebook data sets are needed).
# The pipelines each workload runs are defined in worker.ml.
WORKLOADS = {
    "tpch-acyclic": (0.005, False),
    "dp-release": (0.002, True),
}

CHILDREN = 8  # a run's --seconds is split into children of this share
LOADS = 3  # set-up repeats per child; setup_s is the median of all loads
CHILD_SLACK_S = 60.0  # a child may overrun its --seconds by this much
CHILD_RSS_BUDGET_MB = 2048
RUN_DEADLINE_S = 165.0  # the whole run, build excluded, ends well within 180 s

TIMES = ["analysis_s", "elastic_s", "eval_s", "release_s", "privsql_s"]

# Reported times are scaled to a host on which worker.ml's reference
# kernel takes this long (about its time on an idle 2-vCPU VM).
REF_S = 0.02


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    proc = subprocess.run(["dune", "build", "./perfbench/worker.exe"], stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0 or not os.path.exists(WORKER):
        fail("building the worker failed")


def dataset(workload, seed, scale_factor):
    scale, facebook = WORKLOADS[workload]
    scale *= scale_factor
    name = f"{'fb-' if facebook else ''}tpch{scale:g}-seed{seed}"
    path = os.path.join(DATA_ROOT, name)
    props_file = os.path.join(path, "props.json")
    if not os.path.exists(props_file):
        tmp = path + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        props = gen.write_dataset(tmp, seed, scale, facebook)
        with open(os.path.join(tmp, "props.json"), "w") as f:
            json.dump(props, f)
        shutil.rmtree(path, ignore_errors=True)
        os.rename(tmp, path)
    with open(props_file) as f:
        return path, json.load(f)


def child_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("TSENS_") and k != "OCAMLRUNPARAM"}


def rss_mb(pid):
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def stop(*_):
    # Unwinds through run_child, whose finally stops the running child.
    # (Waiting here could deadlock on the lock of an interrupted poll.)
    raise SystemExit(143)


def run_child(args, timeout, out_path):
    """Runs one worker with its standard output in out_path; returns
    (status, the JSON records it printed)."""
    with open(out_path, "w") as out:
        proc = subprocess.Popen(args, stdout=out, env=child_env())
        status = None
        start = time.monotonic()
        try:
            while proc.poll() is None:
                if rss_mb(proc.pid) > CHILD_RSS_BUDGET_MB:
                    status = "oom"
                elif time.monotonic() - start > timeout:
                    status = "timeout"
                if status:
                    break
                time.sleep(0.05)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    records = []
    with open(out_path) as f:
        for line in f:
            try:
                records.append(json.loads(line))
            except ValueError:
                pass  # the last line of a killed child may be cut short
    if status is None:
        if proc.returncode == 0 and records and "exec_jobs" in records[-1]:
            status = "ok"
        else:
            # SIGKILL from outside is the kernel's OOM killer.
            status = "oom" if proc.returncode == -signal.SIGKILL else f"exit {proc.returncode}"
    return status, records


def median(values):
    return statistics.median(values) if values else 0.0


class Child:
    """The records of one worker run, and what they add up to."""

    def __init__(self, status, records):
        self.status = status
        get = lambda key: [r for r in records if key in r]
        planned = get("planned")
        self.planned = planned[0]["planned"] if planned else 1
        loads = get("setup_s")
        self.setup = loads[0]["setup_s"] if loads else []
        self.ref = median(loads[0]["ref_s"]) if loads else 0.0
        # The host's speed drifts by up to 1.8 times over minutes, and
        # everything slows alike, the CSV loads too. A child takes a few
        # seconds, so the reference it timed at its start gives its speed.
        self.speed = REF_S / self.ref if self.ref else 1.0
        self.rounds = get("round")
        final = get("exec_jobs")
        self.final = final[0] if final else {}
        self.attempted = sum(r["attempted"] for r in self.rounds)
        self.failed = sum(r["failed"] for r in self.rounds)
        self.failures = [f for r in self.rounds for f in r["failures"]]
        if status != "ok":
            # The round in progress when the child died fails as a whole.
            self.attempted += self.planned
            self.failed += self.planned
            self.failures.append(f"child {status}")


def pooled(children, value, scaled=False):
    """The median of value(round) over all rounds of the children, each
    time scaled to REF_S if asked. On a shared host the same work can
    run up to 1.5 times as fast in one process as in the next, so a run
    pools several short processes."""
    return median([value(r) * (c.speed if scaled else 1.0) for c in children for r in c.rounds])


def summed(metric):
    """A round's time for metric, summed over the workload's queries."""
    return lambda r: sum(r["times"][metric].values())


def source_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    # A checkout without git: identify the sources by content instead.
    digest = hashlib.sha256()
    for root, dirs, files in os.walk("lib"):
        dirs.sort()
        for name in sorted(files):
            with open(os.path.join(root, name), "rb") as f:
                digest.update(name.encode() + f.read())
    return "lib-sha256:" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale-factor", type=float, default=1.0, help="shrink TPC-H inputs (smoke test)")
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isfile("perfbench/dune")):
        fail("run from the root of a checkout of the repository (dune-project, lib/ and perfbench/ needed)", 2)
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    signal.signal(signal.SIGTERM, stop)

    build()
    data, props = dataset(args.workload, args.seed, args.scale_factor)

    start = time.monotonic()
    base = [WORKER, "run", "--workload", args.workload, "--data", data, "--seed", str(args.seed)]
    base += ["--loads", str(LOADS)]
    out_path = os.path.join(DATA_ROOT, f"{args.workload}-seed{args.seed}.out")

    def child(trace, seconds):
        budget = min(seconds + CHILD_SLACK_S, RUN_DEADLINE_S - (time.monotonic() - start))
        cmd = base + ["--trace", str(trace), "--seconds", f"{seconds:g}"]
        return Child(*run_child(cmd, budget, out_path))

    # Children of --seconds / CHILDREN each, while the next one should
    # end within --seconds; with --trace 1 untraced and traced ones
    # alternate. One failed child ends the run, not the sweep.
    children = {0: [], 1: []}
    mode = 0
    while RUN_DEADLINE_S - (time.monotonic() - start) > 1.0:
        c = child(mode, args.seconds / CHILDREN)
        children[mode].append(c)
        if c.status != "ok":
            break
        if args.trace:
            mode = 1 - mode
        n = len(children[0]) + len(children[1])
        elapsed = time.monotonic() - start
        if elapsed + elapsed / n > args.seconds and (not args.trace or children[1]):
            break
    os.remove(out_path)
    plain, traced = children[0], children[1]
    everyone = plain + traced
    attempted = sum(c.attempted for c in everyone)
    failed = sum(c.failed for c in everyone)
    failures = [f for c in everyone for f in c.failures]

    if args.trace:
        metrics = {}
        for name in (m["name"] for m in spec["per_layer"]):
            if name == "obs.overhead_ratio":
                untraced = pooled(plain, summed("analysis_s"), scaled=True)
                value = pooled(traced, summed("analysis_s"), scaled=True) / untraced if untraced else 0.0
            elif name == "relational.csv_load_s":
                value = median([s for c in traced for s in c.setup])
            elif name == "input.rows":
                value = sum(props["rows"].values())
            elif name == "input.max_key_group":
                value = props["max_key_group"]
            else:
                value = pooled(traced, lambda r: r["layers"][name])
            metrics[name] = value
    else:
        metrics = {name: pooled(plain, summed(name), scaled=True) for name in TIMES}
        metrics["setup_s"] = median([s * c.speed for c in plain for s in c.setup])
        metrics["total_s"] = metrics["setup_s"] + pooled(plain, lambda r: r["round_s"], scaled=True)
        metrics["peak_rss_mb"] = pooled(plain, lambda r: r["peak_rss_mb"])
        metrics["ok_ratio"] = 1.0 - failed / attempted if attempted else 0.0
        metrics = {m["name"]: metrics[m["name"]] for m in spec["end_to_end"]}

    rounds = [r for c in everyone for r in c.rounds]
    first = rounds[0] if rounds else {}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "children": [c.status for c in everyone],
        "rounds": [len(c.rounds) for c in everyone],
        "commit": source_commit(),
        "nproc": os.cpu_count(),
        "exec_jobs": everyone[0].final.get("exec_jobs"),
        "inputs": props,
        "output_sizes": first.get("output_sizes"),
        "query_s": {q: median([r["query_s"][q] for r in rounds]) for q in first.get("query_s", {})},
        "failures": failures[:20],
        "ref_s": median([c.ref for c in everyone]),
        "unscaled_s": {m: pooled(plain, summed(m)) for m in TIMES},
    }
    for name, value in metrics.items():
        print(f"{name:40s} {value:>16.6g} {units[name]}", file=sys.stderr)
    print(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
            }
        )
    )


if __name__ == "__main__":
    main()
