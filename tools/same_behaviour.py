#!/usr/bin/env python3
"""Checks that two source trees of ripple behave the same.

    python3 tools/same_behaviour.py PARENT_TREE CHANGE_TREE

Builds each tree's .bench_build exactly as that tree's perfbench/run.py
configures it, then runs its ripple_perf on every workload (campaign,
dataflow, serving) at seeds 1 and 1000003, once untraced (--trace 0)
and once traced with the scheduler replay (--trace 1 --replay 1). The
host block and the replay's *_us timings are host measurements and are
dropped; every other field (fingerprints, checks, attempted/done/failed,
simulated metrics, per-layer counts) must be identical.

Then builds the examples and benches in each tree's CMake build/
(configured with the defaults first if it is not), runs the seven
examples and the --smoke runs of the fifteen benches below (the serving
side: fig4-6, load balancing, continuous batching, concurrency, table2;
the data plane, workflows and scheduling: datasched, dataplane,
tenants, dag, failures, scheduler, fig3, table1), each in the same
empty scratch working directory, and compares their exit status,
stdout and stderr byte for byte: none of them prints a host time.

Prints each field and output that differs and exits non-zero on any
difference. The trees are typically a `git archive` export of the
parent commit and the working tree of the change.
"""

import argparse
import difflib
import importlib.util
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("campaign", "dataflow", "serving")
SEEDS = (1, 1000003)
MODES = (("--trace", "0"), ("--trace", "1", "--replay", "1"))

EXAMPLES = ("cell_painting", "data_pipeline", "elastic_serving",
            "hybrid_remote", "quickstart", "signature_detection",
            "uncertainty_quantification")
SMOKE_BENCHES = ("fig4_rt_local", "fig5_rt_remote", "fig6_it_llama",
                 "ablation_loadbalance", "ablation_continuous",
                 "ablation_concurrency", "table2_matrix",
                 "ablation_datasched", "ablation_dataplane",
                 "ablation_tenants", "ablation_dag", "ablation_failures",
                 "ablation_scheduler", "fig3_bootstrap_scaling",
                 "table1_usecases")
PROGRAMS = tuple([(f"example_{name}", ()) for name in EXAMPLES] +
                 [(f"bench_{name}", ("--smoke",)) for name in SMOKE_BENCHES])
DIFF_LINES = 20


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


def build_programs(tree):
    """Builds the PROGRAMS targets in the tree's CMake build/."""
    build_dir = tree / "build"
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(tree), "-B", str(build_dir)],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "--parallel",
                    str(os.cpu_count() or 1), "--target",
                    *(name for name, _ in PROGRAMS)],
                   stdout=sys.stderr, check=True)
    return build_dir


def outputs(build_dir, name, args, scratch):
    """Exit status, stdout and stderr of one run in an empty `scratch`."""
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir()
    done = subprocess.run([str(build_dir / name), *args], cwd=scratch,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    return {"exit status": str(done.returncode).encode(),
            "stdout": done.stdout, "stderr": done.stderr}


def compare_programs(parent, change):
    """Runs every program from both build trees; returns the number of
    outputs that differ, printing the first lines of each diff."""
    differences = 0
    with tempfile.TemporaryDirectory() as root:
        scratch = Path(root) / "run"
        for name, args in PROGRAMS:
            label = " ".join((name, *args))
            old = outputs(parent, name, args, scratch)
            new = outputs(change, name, args, scratch)
            differ = [stream for stream in old if old[stream] != new[stream]]
            for stream in differ:
                print(f"{label}: {stream} differs")
                diff = difflib.unified_diff(
                    old[stream].decode(errors="replace").splitlines(),
                    new[stream].decode(errors="replace").splitlines(),
                    "parent", "change", n=0, lineterm="")
                for line in itertools.islice(diff, DIFF_LINES):
                    print(line)
            print(f"{label}: {len(old)} outputs, {len(differ)} differ",
                  file=sys.stderr)
            differences += len(differ)
    return differences


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
    parent_tree = args.parent.resolve()
    change_tree = args.change.resolve()
    parent = build(parent_tree, "parent_run")
    change = build(change_tree, "change_run")
    parent_programs = build_programs(parent_tree)
    change_programs = build_programs(change_tree)

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
    differences += compare_programs(parent_programs, change_programs)
    if differences:
        print(f"same_behaviour: {differences} fields and outputs differ")
        return 1
    print("same_behaviour: every field and output is identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
