"""Named span perf budgets: the contract behind ``repro obs profile --check``.

A budget file (shipped at ``benchmarks/perf_budget.json``) pins a
maximum total (and optionally mean) wall time per span name for a fixed
reference workload.  ``repro obs profile --check`` runs that workload
under the profiler and fails when any recorded span blows its budget —
the CI gate that keeps the observability triad honest: metrics say how
much, traces say where, profiles say *why*, and budgets say *how much is
too much*.

Budgets are deliberately generous (shared CI runners are noisy); the
fine-grained trajectory lives in ``benchmarks/BENCH_history.jsonl``,
which the same profile run feeds via ``bench_history.py --append`` so
slow drift is visible long before a budget trips.  A budgeted span that
the reference run did not record is reported ``absent`` but does not
fail the check — budgets may cover more paths (e.g. streaming) than one
reference experiment exercises; pair each budget with the workload that
records it in CI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Sequence

from ...errors import ObservabilityError
from ..trace import aggregate_spans

#: Repo-relative default consumed by the CLI and CI.
DEFAULT_BUDGET_PATH = "benchmarks/perf_budget.json"


def load_budget(path) -> dict:
    """Load and validate a budget document.

    Layout::

        {
          "description": "...",
          "reference": {"experiment": "table5", "nodes": 24, ...},
          "budgets": {
            "experiment.table5": {"max_total_s": 120.0},
            "gpu.run_batch":     {"max_total_s": 60.0, "max_mean_s": 1.0}
          }
        }
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ObservabilityError(
            f"cannot read perf budget {path}: {exc}"
        ) from exc
    budgets = doc.get("budgets") if isinstance(doc, dict) else None
    if not isinstance(budgets, dict) or not budgets:
        raise ObservabilityError(
            f"{path} is not a perf budget (no non-empty 'budgets' object)"
        )
    for name, limit in budgets.items():
        if not isinstance(limit, dict) or "max_total_s" not in limit:
            raise ObservabilityError(
                f"budget for span {name!r} needs a 'max_total_s' bound"
            )
        for key in ("max_total_s", "max_mean_s"):
            if key in limit and not (
                isinstance(limit[key], (int, float)) and limit[key] > 0
            ):
                raise ObservabilityError(
                    f"budget {name!r}: {key} must be a positive number"
                )
    return doc


@dataclass
class BudgetCheck:
    """Outcome of checking recorded spans against a budget document."""

    rows: List[dict] = field(default_factory=list)

    @property
    def breaches(self) -> List[dict]:
        return [row for row in self.rows if row["status"] == "OVER"]

    @property
    def ok(self) -> bool:
        return not self.breaches

    def render(self) -> str:
        lines = [
            f"  {'span':<26} {'budget s':>10} {'actual s':>10} "
            f"{'mean s':>10}  status"
        ]
        for row in self.rows:
            total = (
                f"{row['total_s']:.4f}" if row["total_s"] is not None else "-"
            )
            mean = (
                f"{row['mean_s']:.4f}" if row["mean_s"] is not None else "-"
            )
            lines.append(
                f"  {row['span']:<26} {row['max_total_s']:>10.2f} "
                f"{total:>10} {mean:>10}  {row['status']}"
            )
        verdict = (
            "perf budget OK"
            if self.ok
            else f"perf budget BREACHED ({len(self.breaches)} span(s) over)"
        )
        return "\n".join([*lines, verdict])


def check_budget(spans: Sequence[dict], budget: dict) -> BudgetCheck:
    """Compare recorded spans against the budget's named bounds."""
    aggs = {agg["name"]: agg for agg in aggregate_spans(spans)}
    check = BudgetCheck()
    for name, limit in sorted(budget["budgets"].items()):
        agg = aggs.get(name)
        if agg is None:
            check.rows.append({
                "span": name,
                "max_total_s": limit["max_total_s"],
                "total_s": None,
                "mean_s": None,
                "status": "absent",
            })
            continue
        over = agg["total_s"] > limit["max_total_s"]
        max_mean = limit.get("max_mean_s")
        if max_mean is not None and agg["mean_s"] > max_mean:
            over = True
        check.rows.append({
            "span": name,
            "max_total_s": limit["max_total_s"],
            "total_s": agg["total_s"],
            "mean_s": agg["mean_s"],
            "status": "OVER" if over else "ok",
        })
    return check
