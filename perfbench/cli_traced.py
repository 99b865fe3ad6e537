"""The zipftree CLI under the benchmark's tracer.

    python3 perfbench/cli_traced.py OUT_DIR [zipftree CLI arguments]

Behaves as `python -m zipftree.cli` with the same arguments and writes the
trace to OUT_DIR: `trace-<pid>.jsonl` with one summary per optimizer run
(pool workers are forked with the tracer installed, and reset it at fork)
and `main.json` with the spans of this process outside any run.
"""

import json
import os
import sys

import workloads
from tracer import Tracer


def main():
    out_dir = sys.argv[1]
    workloads.use_source_tree()
    import zipftree.cli

    tracer = Tracer(sink_dir=out_dir)
    tracer.install()
    os.register_at_fork(after_in_child=tracer.forked)
    try:
        rc = zipftree.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
    with open(os.path.join(out_dir, "main.json"), "w") as fh:
        json.dump(tracer.fold_rest(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
