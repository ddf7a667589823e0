"""Summarise the run records in perfbench/out/ (or a given directory).

    python3 perfbench/summarize.py [DIR]

For each workload and end-to-end metric: the median, the quartiles, and the
spread (quartile distance over median) of the untraced runs, against the
metric's bound in BENCHMARK.json, flagged when above a third of the bound.
For traced runs: the median self time and self-time share per layer.  It also checks that the work counts of every run of a workload
are identical.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv) -> int:
    folder = Path(argv[1]) if len(argv) > 1 else HERE / "out"
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs: dict = {}
    for path in sorted(folder.glob("*-seed*-trace*.json")):
        rec = json.loads(path.read_text(encoding="utf-8"))
        runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    status = 0
    for (workload, trace), recs in sorted(runs.items()):
        seeds = sorted(r["seed"] for r in recs)
        print(f"{workload} trace={trace}: {len(recs)} runs, seeds {seeds}")
        if any(r["counts"] != recs[0]["counts"] for r in recs):
            print("  counts differ between runs")
            status = 1
        metrics = bench["per_layer"] if trace else bench["end_to_end"]
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in recs]
            med = statistics.median(vals)
            if trace:
                if m["name"].endswith(("busy_s", "self_share")) and med:
                    print(f"  {m['name']:30s} median {med:.4g} {m['unit']}")
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "  <-- spread above a third of the bound" if spread >= m["bound"] / 3 else ""
            print(f"  {m['name']:14s} median {med:.6g} {m['unit']:6s} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.4f} (bound {m['bound']}){flag}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
