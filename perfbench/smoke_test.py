#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark at a tiny scale.

    python3 perfbench/smoke_test.py        (from the repository root)

Checks, in about a minute:
* BENCHMARK.json has the shape run.py and its consumers rely on;
* the worker's answer checks accept real answers and reject perturbed
  ones (worker.exe selftest);
* every workload, traced and untraced, at 1/20 of its TPC-H scale, ends
  with a result line that has exactly the declared metrics and units,
  correct answers and no failed operation, and no zero end-to-end metric;
* outside a checkout (only BENCHMARK.json and perfbench/ present) run.py
  fails without printing a result;
* the worker names no `Storage` or `Cache` module and no `TSENS_*`
  toggle, so that removing them needs no change here.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import gen  # noqa: E402
import run  # noqa: E402

SCRATCH = os.path.join(run.DATA_ROOT, "smoke")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
problems = []


def expect(ok, what):
    if not ok:
        problems.append(what)
        print(f"FAIL {what}", file=sys.stderr)


def check_spec(spec):
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    names = [w["name"] for w in spec["workloads"]] + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    expect(len(names) == len(set(names)), "names are unique")
    expect(all(NAME.match(n) for n in names), "names are well formed")
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS), "workloads match run.py")
    expect(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]), "bounds within (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower", "setup_s declared")
    expect(setup and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]), "setup_s has the largest bound")


def check_result(workload, trace, spec, out):
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    where = f"{workload} --trace {trace}"
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: result keys")
    expect(result["correct"] is True and result["failed"] == 0, f"{where}: correct, nothing failed ({lines[-2]})")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{where}: attempted")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    expect(set(metrics) == set(units), f"{where}: metric names {sorted(set(metrics) ^ set(units))}")
    for name, m in metrics.items():
        expect(set(m) == {"value", "unit"} and m["unit"] == units.get(name), f"{where}: {name} unit")
        value = m["value"]
        expect(isinstance(value, (int, float)) and math.isfinite(value), f"{where}: {name} is a number")
        if not trace:
            expect(value > 0, f"{where}: {name} is not 0")


def main():
    os.chdir(os.path.join(HERE, ".."))
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    check_spec(spec)

    with open(os.path.join(HERE, "worker.ml")) as f:
        source = f.read()
    expect(not re.search(r"\b(Storage|Cache)\.|TSENS_", source), "worker.ml names no Storage, Cache or TSENS_ toggle")

    run.build()
    shutil.rmtree(SCRATCH, ignore_errors=True)
    tiny = os.path.join(SCRATCH, "tiny")
    gen.write_dataset(tiny, 7, 0.001, False)
    selftest = subprocess.run([run.WORKER, "selftest", "--data", tiny], capture_output=True, text=True)
    expect(selftest.returncode == 0, f"worker selftest: {selftest.stdout}{selftest.stderr}")

    for workload in sorted(run.WORKLOADS):
        for trace in (0, 1):
            cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1"]
            proc = subprocess.run(cmd + ["--trace", str(trace), "--scale-factor", "0.05"], capture_output=True, text=True)
            expect(proc.returncode == 0, f"{workload} --trace {trace}: exit {proc.returncode}: {proc.stderr[-2000:]}")
            if proc.returncode == 0:
                check_result(workload, trace, spec, proc.stdout)

    bare = os.path.join(SCRATCH, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    cmd = spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout, "run.py fails outside a checkout")
    shutil.rmtree(SCRATCH, ignore_errors=True)

    print("smoke test: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
