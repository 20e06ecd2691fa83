"""Spans around the layer functions that ``gridplan.runner`` imports.

The benchmark wraps each name in the runner's module namespace, so every
call the runner makes into a layer is timed from outside the program. A
span records its id, name, start, end and parent (the enclosing op or
span) plus any counts read at that boundary. Spans stay in memory until
the run ends.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

# runner attribute -> per-layer metric that its time feeds
LAYER_TIMES = {
    "load_bundle": "runner.load_bundle_s",
    "validate": "model.validate_s",
    "synthesize_demand": "demand.synthesize_s",
    "BuildInputs": "formulation.build_inputs_s",
    "assemble": "formulation.assemble_s",
    "solve": "solver.solve_s",
    "export_mps": "solver.export_mps_s",
    "import_solution": "solver.import_solution_s",
    "realized_emissions": "emissions.ledger_s",
    "summarize": "reporting.summarize_s",
    "write_report_csv": "reporting.write_artifacts_s",
    "write_operations_csv": "reporting.write_artifacts_s",
}


def _lp_counts(result) -> dict:
    lp = result[0]
    return {"rows": lp.n_rows, "cols": lp.n_cols,
            "nnz": sum(row.idx.size for row in lp.rows)}


# runner attribute -> counts read from its return value
_COUNTS = {
    "assemble": _lp_counts,
    "solve": lambda solution: {"iterations": solution.iterations},
    "export_mps": lambda text: {"mps_bytes": len(text.encode())},
}

# Per-op metrics that the spans give, in report order.
OP_METRICS = (
    "runner.self_s", "model.validate_s", "demand.synthesize_s",
    "formulation.build_inputs_s", "formulation.assemble_s",
    "formulation.assemble_calls", "formulation.rows", "formulation.cols",
    "formulation.nnz", "solver.solve_s", "solver.solve_calls",
    "solver.iterations", "solver.s_per_iter", "solver.export_mps_s",
    "solver.mps_bytes", "solver.import_solution_s", "emissions.ledger_s",
    "reporting.summarize_s", "reporting.write_artifacts_s",
)


def unit(metric: str) -> str:
    if metric.endswith(("_s", "s_per_iter")):
        return "s"
    return "bytes" if metric.endswith("_bytes") else "count"


class Tracer:
    """Collects spans; ``install`` wraps the runner's layer functions."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1]["id"] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def install(self, runner) -> None:
        """Wrap every name in LAYER_TIMES; a missing name is an error, so a
        layer metric can never vanish silently."""
        missing = [name for name in LAYER_TIMES if not hasattr(runner, name)]
        if missing:
            raise RuntimeError(
                f"gridplan.runner no longer has {missing}; update "
                f"perfbench/spans.py so every layer metric is still measured")
        for name in LAYER_TIMES:
            setattr(runner, name, self._wrap(name, getattr(runner, name)))

    def _wrap(self, name, fn):
        counts = _COUNTS.get(name)

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if counts is not None:
                record.update(counts(result))
            return result
        return traced

    def op_metrics(self, op_id: int) -> dict:
        """Per-layer metrics of one op, from its direct child spans."""
        op = self.spans[op_id]
        children = [s for s in self.spans if s["parent"] == op_id]
        out = dict.fromkeys(OP_METRICS, 0.0)
        for s in children:
            out[LAYER_TIMES[s["name"]]] += s["end"] - s["start"]
        assembles = [s for s in children if s["name"] == "assemble"]
        solves = [s for s in children if s["name"] == "solve"]
        out["formulation.assemble_calls"] = len(assembles)
        # LP size: the largest LP assembled in the op.
        for key in ("rows", "cols", "nnz"):
            out[f"formulation.{key}"] = max(
                (s[key] for s in assembles), default=0)
        out["solver.solve_calls"] = len(solves)
        out["solver.iterations"] = sum(s["iterations"] for s in solves)
        out["solver.s_per_iter"] = (
            out["solver.solve_s"] / out["solver.iterations"]
            if out["solver.iterations"] else 0.0)
        out["solver.mps_bytes"] = sum(s.get("mps_bytes", 0) for s in children)
        out["runner.self_s"] = (op["end"] - op["start"]) - sum(
            s["end"] - s["start"] for s in children)
        return out

    def per_layer(self, op_ids: list) -> dict:
        """Median over the traced ops of each per-op metric, plus the
        set-up load_bundle time."""
        per_op = [self.op_metrics(i) for i in op_ids]
        # median_low keeps a count an actual count, not a mean of two.
        out = {key: (statistics.median if unit(key) == "s"
                     else statistics.median_low)([m[key] for m in per_op])
               for key in OP_METRICS}
        loads = [s["end"] - s["start"] for s in self.spans
                 if s["name"] == "load_bundle"]
        out["runner.load_bundle_s"] = statistics.median(loads)
        return out
