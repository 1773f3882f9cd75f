"""Summarise benchmark result files into one baseline record.

    python3 bench/summarize.py --label "<what was measured>" > bench/baseline.json

Reads every ``.bench_results/<workload>-seed<N>-trace<T>.json`` that
``run.py`` wrote and prints, per workload: the domain items of one pass,
the median and quartiles of each end-to-end metric over the untraced runs,
the per-command times (converted from reference units, and wall), the median of
each per-layer metric over the traced runs, and each layer's share of
traced self time.  ``LAYER_MAP`` records
which end-to-end figure each layer's metrics should move, and where.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

import spans
import workloads

RESULTS = Path(__file__).resolve().parent.parent / ".bench_results"

LAYER_MAP = {
    "cli": {"should_move": ["tile_enumerate_s", "pass_s"], "on": ["enumerate"]},
    "jsonio": {"should_move": ["run_s", "tile_enumerate_s"], "on": ["numeric", "enumerate"]},
    "zonogon": {"should_move": ["run_s"], "on": ["numeric"]},
    "flips": {"should_move": ["run_s", "verify_confluence_s", "tile_enumerate_s",
                              "peak_rss_mb"], "on": ["numeric", "enumerate"]},
    "engine": {"should_move": ["run_s", "verify_tropical_s"], "on": ["numeric"],
               "must_not_worsen": ["verify_laurent_s"], "guarded_on": ["symbolic"]},
    "laurent": {"should_move": ["verify_laurent_s", "run_s"], "on": ["symbolic"]},
    "spinor": {"should_move": ["verify_grassmann_s"], "on": ["grassmann"]},
    "tropical": {"should_move": ["verify_tropical_s"], "on": ["numeric"]},
}


def _quartiles(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "runs": 1}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": len(values)}


def summarize(workload: str) -> dict:
    plain, traced = ([json.loads(p.read_text())
                      for p in sorted(RESULTS.glob(f"{workload}-seed*-trace{t}.json"))]
                     for t in (0, 1))
    out = {"items_per_pass": workloads.domain_items(workloads.pass_ops(workload, 0, 0))}
    if plain:
        out["end_to_end"] = {
            name: _quartiles([r["metrics"][name] for r in plain]) for name in plain[0]["metrics"]}
        out["command_per_pass"] = {
            kind: {unit: statistics.median(r["command_s"][kind][unit] for r in plain)
                   for unit in ("s", "wall_s")}
            for kind in plain[0]["command_s"]}
        out["pass_wall_s"] = statistics.median(
            statistics.median(r["pass_wall_s"]) for r in plain)
        out["failed_ratio"] = (sum(not op["ok"] for r in plain for op in r["ops"])
                               / sum(len(r["ops"]) for r in plain))
    if traced:
        layer = {name: statistics.median(r["metrics"][name] for r in traced)
                 for name in spans.PER_LAYER}
        out["per_layer"] = layer
        self_s = {lay: layer["cli.main.self_s" if lay == "cli" else f"{lay}.self_s"]
                  for lay in spans.LAYERS}
        total = sum(self_s.values())
        out["self_share"] = {lay: s / total for lay, s in self_s.items() if s}
        out["function_self_share"] = {
            name[:-len(".self_s")]: layer[name] / total
            for name in spans.PER_LAYER
            if name.endswith(".self_s") and name.count(".") == 2 and layer[name] / total >= 0.05}
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="what was measured, e.g. a commit id")
    args = parser.parse_args()
    print(json.dumps({
        "measured": args.label,
        "layer_map": LAYER_MAP,
        "workloads": {w: summarize(w) for w in workloads.WORKLOADS},
    }, indent=1))


if __name__ == "__main__":
    main()
