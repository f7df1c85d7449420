#!/usr/bin/env python3
"""Self-test of the jscale benchmark, at reduced size (one-second runs).

From the root of a checkout:

    python3 perfbench/selftest.py

Checks that:
  1. every metric BENCHMARK.json names is printed, with its unit, by
     every workload (--trace 0 for end_to_end, --trace 1 for per_layer);
  2. a deliberately altered reference is reported as a failed run that
     names the drifted field;
  3. the traced run passes its purity and probe cross-checks, and its
     exact counts equal the recorded reference;
  4. the counts change with the seed (42 against the held-out seed 47)
     while each seed's own reference still holds;
  5. the benchmark's run of each workload at seed 42 equals
     `jscale golden record` with the workload's `jscale run` flags.
Exits 0 when all hold, 1 otherwise.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import run as bench

HELD_OUT_SEED = 47
TMP = bench.ROOT / ".bench_build" / "perfbench-selftest"

failures = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def drive(workload, trace, seed=42, reference=bench.HERE / "reference"):
    """Run the benchmark for one second; return (result, stdout)."""
    out = bench.run_bench(
        bench.bench_args(workload, seed, 1, trace, reference))
    return bench.result_of(out), out


def read_golden(path):
    """({config key: value}, {run label: {field: value}}) of a
    jscale-golden v1 file."""
    config, runs, cur = {}, {}, None
    for line in Path(path).read_text().splitlines():
        parts = line.split()
        if parts[:1] == ["config"]:
            key, _, value = line[len("config "):].partition("=")
            config[key] = value
        elif parts[:1] == ["run"]:
            cur = runs.setdefault(parts[1], {})
        elif parts[:1] == ["stat"]:
            cur[parts[1]] = float(parts[2])
    return config, runs


def reference(workload):
    return read_golden(bench.HERE / "reference" / f"{workload}.golden")


def check_metrics(spec):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in bench.WORKLOADS:
            res, _ = drive(w, trace)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, f"{w} --trace {trace} prints every {key} "
                                f"metric with its unit")
            expect(res["correct"] and res["failed"] == 0
                   and res["attempted"] >= 1,
                   f"{w} --trace {trace} runs are correct")
            if trace == 1:
                events = reference(w)[1][f"{w}/seed=42"]["sim_events"]
                expect(res["metrics"]["sim.events"]["value"] == events,
                       f"{w} traced sim.events equals the reference")


def check_altered_reference():
    w = "h2-locks"
    alt = TMP / "altered"
    shutil.copytree(bench.HERE / "reference", alt)
    path = alt / f"{w}.golden"
    text = path.read_text()
    label = f"run {w}/seed=42 "
    head, sep, tail = text.partition(label)
    body = re.sub(r"^stat locks\.handoffs (\d+)",
                  lambda m: f"stat locks.handoffs {int(m.group(1)) + 1}",
                  tail, count=1, flags=re.M)
    expect(body != tail, "the reference was altered")
    path.write_text(head + sep + body)
    res, out = drive(w, 0, reference=alt)
    expect(not res["correct"] and res["failed"] == res["attempted"],
           "an altered reference fails every run")
    expect("locks.handoffs" in out, "the failure names the drifted field")


def check_seeds():
    w = "h2-locks"
    events = {}
    for seed in (42, HELD_OUT_SEED):
        res, _ = drive(w, 1, seed=seed)
        expect(res["correct"], f"{w} seed {seed} matches its reference")
        events[seed] = res["metrics"]["sim.events"]["value"]
    expect(events[42] != events[HELD_OUT_SEED],
           f"sim.events changes with the seed ({events})")


def check_cli_equivalence():
    jscale = bench.build("jscale")
    for w in bench.WORKLOADS:
        config, runs = reference(w)
        flags = config["flags"]
        out = TMP / f"{w}.cli.golden"
        cmd = [str(jscale), "golden", "record", "--seed", "42",
               "--out", str(out)]
        cmd += flags.replace("<tmp>", str(TMP / "cross.json")).split()
        if subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode:
            expect(False, f"jscale golden record ran for {w}")
            continue
        (cli,) = read_golden(out)[1].values()
        mine = runs[f"{w}/seed=42"]
        expect(all(mine.get(k) == v for k, v in cli.items()),
               f"{w} equals `jscale run {flags}` field for field")


def main():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(TMP, ignore_errors=True)
    TMP.mkdir(parents=True)
    try:
        check_cli_equivalence()
        check_metrics(spec)
        check_altered_reference()
        check_seeds()
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
