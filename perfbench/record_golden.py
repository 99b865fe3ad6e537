"""Record the golden outputs: one pass of every workload at master seed 0.

    python3 perfbench/record_golden.py

Run only when the program's results are meant to change; the files under
golden/ are what `run.py` compares every seed-0 pass against.
"""

import json

import golden
import workloads


def main():
    workloads.use_source_tree()
    golden.GOLDEN_DIR.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        objs = workloads.setup(workload)
        records = workloads.run_pass(workload, objs, golden.GOLDEN_SEED).records
        with open(golden.golden_path(workload), "w") as fh:
            json.dump(records, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: {len(records)} records")


if __name__ == "__main__":
    main()
