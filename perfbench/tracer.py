"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps the public calls of the zipftree layers from outside the
package: it replaces each name where its callers look it up, records one
span per call (name, start, end, parent span, run id) in flat arrays, and
puts every original back on `uninstall`.  Nothing under `src/` knows about
it.

A *run* is one outermost call of an optimizer (`*_run`).  When a run ends
its spans are folded into per-name totals (calls, total time, self time),
the summary is appended to `runs` (and to the sink file, when one is set)
and the spans are dropped, so memory stays bounded by one run.  Spans
outside any run (set-up, the CLI and harness calls) stay in memory until
`fold_rest`.

Self time is a span's duration minus the durations of its child spans.
Every process runs its spans on one thread, so the children of one span
never overlap and their durations add up to the time they cover.
"""

from __future__ import annotations

import gc
import json
import os
import time
from array import array

ALGOS = ("sequool", "soo", "doo", "uniform", "stroquool")


def fold_spans(name_ids, starts, ends, parents, lo, cover):
    """Per-name [calls, total_s, self_s] of spans lo.. end.

    `cover` maps a span index to child time already removed from the
    arrays (the spans of finished runs); it is read, not changed.
    """
    n = len(starts)
    child = [0.0] * (n - lo)
    for i in range(lo, n):
        p = parents[i]
        if p >= lo:
            child[p - lo] += ends[i] - starts[i]
    totals = {}
    for i in range(lo, n):
        dur = ends[i] - starts[i]
        own = dur - child[i - lo] - cover.get(i, 0.0)
        acc = totals.get(name_ids[i])
        if acc is None:
            totals[name_ids[i]] = [1, dur, own]
        else:
            acc[0] += 1
            acc[1] += dur
            acc[2] += own
    return totals


def tree_stats(trees):
    """Cell, zero-width-cell and distinct-point counts of finished trees."""
    cells = zero = distinct = 0
    for tree in trees:
        cells += len(tree.cells)
        points = set()
        for c in tree.cells.values():
            if any(hi == lo for lo, hi in zip(c.box.lower, c.box.upper)):
                zero += 1
            if c.eval_count:
                points.add(c.representative)
        distinct += len(points)
    return {"cells": cells, "zero_width_cells": zero, "distinct_points": distinct}


class Tracer:
    """Span recorder; see the module docstring.

    sink_dir -- directory that receives `trace-<pid>.jsonl`, one line per
                finished run, or None to keep run summaries in memory only.
    """

    def __init__(self, sink_dir=None):
        self.sink_dir = sink_dir
        self.names = []
        self._name_ids = {}
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.run_ids = array("l")
        self.stack = []
        self.cover = {}
        self.run_id = -1
        self.in_run = False
        self.runs = []
        self.counters = {}
        self.trees = []
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_t0 = 0.0
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _nid(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name, fn, after=None):
        """`fn` wrapped to record one span per call; `after(args, result)`
        runs once the span has closed."""
        nid = self._nid(name)
        ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, run_ids, stack = self.parents, self.run_ids, self.stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            i = len(starts)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            run_ids.append(tracer.run_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def run_span(self, algo, fn):
        """Span for an optimizer entry point that also delimits a run."""
        inner = self.span(f"optimizers.{algo}", fn)

        def traced_run(*args, **kwargs):
            if self.in_run:
                return inner(*args, **kwargs)
            self.in_run = True
            self.run_id += 1
            lo = len(self.starts)
            self.counters = {}
            self.trees = []
            gc_s, gc_n = self.gc_s, self.gc_collections
            try:
                result = inner(*args, **kwargs)
            except BaseException:
                self._drop(lo)
                raise
            finally:
                self.in_run = False
            cfg = next(a for a in (*args, *kwargs.values())
                       if hasattr(a, "budget_n"))
            summary = {
                "run": self.run_id, "pid": os.getpid(), "algo": algo,
                "n": cfg.budget_n,
                "openings": result.openings_used,
                "evaluations": result.evaluations_used,
                "units": result.budget_units_used,
                **tree_stats(self.trees),
                "gc_s": self.gc_s - gc_s,
                "gc_collections": self.gc_collections - gc_n,
                "counters": self.counters,
                "spans": self._named(fold_spans(
                    self.name_ids, self.starts, self.ends, self.parents,
                    lo, self.cover)),
            }
            self._drop(lo)
            self.trees = []
            self.runs.append(summary)
            if self.sink_dir is not None:
                path = os.path.join(self.sink_dir, f"trace-{os.getpid()}.jsonl")
                with open(path, "a") as fh:
                    fh.write(json.dumps(summary) + "\n")
            return result

        return traced_run

    def _drop(self, lo):
        """Forget spans lo.. end, crediting their time to parents kept."""
        for i in range(lo, len(self.starts)):
            p = self.parents[i]
            if 0 <= p < lo:
                self.cover[p] = self.cover.get(p, 0.0) + self.ends[i] - self.starts[i]
        for key in [k for k in self.cover if k >= lo]:
            del self.cover[key]
        for arr in (self.name_ids, self.starts, self.ends, self.parents,
                    self.run_ids):
            del arr[lo:]

    def _named(self, totals):
        return {self.names[nid]: acc for nid, acc in totals.items()}

    def _count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_t0
            self.gc_collections += 1

    # -- results -----------------------------------------------------------

    def begin_pass(self):
        """Start a new measurement window: forget finished runs and the
        collector totals, keep spans still in memory (set-up)."""
        self.runs = []
        self.gc_s = 0.0
        self.gc_collections = 0

    def fold_rest(self):
        """Totals of the spans outside any run, and the collector time this
        process spent outside runs, since `begin_pass`."""
        return {
            "spans": self._named(fold_spans(
                self.name_ids, self.starts, self.ends, self.parents, 0,
                self.cover)),
            "gc_s": self.gc_s - sum(r["gc_s"] for r in self.runs),
            "gc_collections": self.gc_collections
            - sum(r["gc_collections"] for r in self.runs),
        }

    def forked(self):
        """Reset in a forked child, which inherits the parent's open spans."""
        for arr in (self.name_ids, self.starts, self.ends, self.parents,
                    self.run_ids):
            del arr[:]
        self.stack.clear()
        self.cover.clear()
        self.in_run = False
        self.begin_pass()

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the public calls of every zipftree layer."""
        from zipftree import cli, harness, objectives, optimizers, partition, theory

        self._patch(partition.PartitionTree, "open_cell",
                    self.span("partition.open_cell",
                              partition.PartitionTree.open_cell))
        self._patch(partition.PartitionTree, "add_evaluations",
                    self.span("partition.add_evaluations",
                              partition.PartitionTree.add_evaluations))
        make_tree = self.span("partition.make_tree", partition.make_tree,
                              after=lambda args, tree: self.trees.append(tree))
        self._patch(partition, "make_tree", make_tree)
        self._patch(optimizers, "make_tree", make_tree)

        self._patch(objectives.EvaluationStream, "observe_sum",
                    self.span("objectives.observe_sum",
                              objectives.EvaluationStream.observe_sum))
        self._patch(objectives.Objective, "eval",
                    self.span("objectives.eval", objectives.Objective.eval))
        # the objectives' fn lambdas look these up as module globals
        for fname in ("garland", "wrapped_sine"):
            self._patch(objectives, fname,
                        self.span("objectives.fn", getattr(objectives, fname)))
        self._patch(objectives.NoiseModel, "offsets",
                    self.span("objectives.noise", objectives.NoiseModel.offsets,
                              after=lambda args, out: self._count(
                                  "objectives.noise.draws", len(out))))

        harmonic = self.span("theory.harmonic", theory.harmonic)
        self._patch(theory, "harmonic", harmonic)
        self._patch(optimizers, "harmonic", harmonic)

        for algo in ALGOS:
            wrapped = self.run_span(algo, getattr(optimizers, f"{algo}_run"))
            self._patch(optimizers, f"{algo}_run", wrapped)
            self._patch(harness, f"{algo}_run", wrapped)

        for fname in ("run_experiment", "summarize"):
            wrapped = self.span(f"harness.{fname}", getattr(harness, fname))
            self._patch(harness, fname, wrapped)
            self._patch(cli, fname, wrapped)
        self._patch(cli, "main", self.span("cli.main", cli.main))
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
