"""Set-up probe: `python3 perfbench/probe.py WORKLOAD` performs the
workload's set-up in a fresh interpreter, then prints `ready`.  run.py
times each probe from spawn to that line."""

import sys

import workloads

if __name__ == "__main__":
    workloads.use_source_tree()
    workloads.setup(sys.argv[1])
    print("ready", flush=True)
