#!/usr/bin/env python3
"""Checks that two source trees of ripple behave the same on the benchmark.

    python3 tools/same_behaviour.py PARENT_TREE CHANGE_TREE

Builds each tree's .bench_build exactly as that tree's perfbench/run.py
configures it, then runs its ripple_perf on every workload (campaign,
dataflow, serving) at seeds 1 and 1000003, once untraced (--trace 0)
and once traced with the scheduler replay (--trace 1 --replay 1). The
host block and the replay's *_us timings are host measurements and are
dropped; every other field (fingerprints, checks, attempted/done/failed,
simulated metrics, per-layer counts) must be identical. Prints each
field that differs and exits non-zero on any difference.

The trees are typically a `git archive` export of the parent commit and
the working tree of the change.
"""

import argparse
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("campaign", "dataflow", "serving")
SEEDS = (1, 1000003)
MODES = (("--trace", "0"), ("--trace", "1", "--replay", "1"))


def build(tree, name):
    """Builds the tree's ripple_perf through its own run.py."""
    sys.dont_write_bytecode = True  # leave no cache beside run.py
    spec = importlib.util.spec_from_file_location(
        name, tree / "perfbench" / "run.py")
    run_py = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_py)
    if not run_py.build():
        sys.exit(f"same_behaviour: building {tree} failed")
    return run_py.BINARY


def behaviour(binary, workload, seed, mode):
    """ripple_perf's last-line JSON without its host-time fields."""
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               *mode]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          check=True)
    record = json.loads(done.stdout.strip().splitlines()[-1])
    record.pop("host", None)
    replay = record.get("replay", {})
    for key in [k for k in replay if k.endswith("_us")]:
        del replay[key]
    return record


def flatten(value, prefix=""):
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            out.update(flatten(item, f"{prefix}{key}."))
        return out
    return {prefix.rstrip("."): value}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    parent = build(args.parent.resolve(), "parent_run")
    change = build(args.change.resolve(), "change_run")

    differences = 0
    for workload in WORKLOADS:
        for seed in SEEDS:
            for mode in MODES:
                label = f"{workload} seed {seed} {' '.join(mode)}"
                old = flatten(behaviour(parent, workload, seed, mode))
                new = flatten(behaviour(change, workload, seed, mode))
                diff = sorted(k for k in old.keys() | new.keys()
                              if old.get(k) != new.get(k))
                for key in diff:
                    print(f"{label}: {key}: {old.get(key)!r} -> "
                          f"{new.get(key)!r}")
                differences += len(diff)
                print(f"{label}: {len(old)} fields, {len(diff)} differ",
                      file=sys.stderr)
    if differences:
        print(f"same_behaviour: {differences} fields differ")
        return 1
    print("same_behaviour: every field is identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
