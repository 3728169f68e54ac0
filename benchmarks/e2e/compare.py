"""Compare two ``BENCH_e2e.json`` files: ``compare.py BASE.json NEW.json``.

Each file holds one or more full runs (``run.py --seeds 0 1``).  For every
workload x end-to-end metric this prints both medians, the ratio new/base
with its base, the fixed bound and a verdict:

``ok``          the new median is not worse than the base by more than the bound
``worse``       it is — the exit code is then non-zero
``unresolved``  the run-to-run spread of either side is wider than the bound,
                so "not worse" cannot be told from noise (unless every new
                run reads better than every base run)

Spread is (max - min) / median over a side's runs, or the interquartile
range / median once a side has four runs or more.  ``failed_share`` has an
absolute bound of 0: any failure that the base did not have is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load_values(path: str) -> dict[tuple[str, str], dict]:
    """(workload, metric) -> {"values": [one per run], "unit", "better", "bound"}."""
    out: dict[tuple[str, str], dict] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        for workload, result in run["workloads"].items():
            for metric, m in result["end_to_end"].items():
                entry = out.setdefault(
                    (workload, metric),
                    {"values": [], "unit": m["unit"], "better": m["better"], "bound": m["bound"]},
                )
                entry["values"].append(m["value"])
    return out


def spread(values: list[float]) -> float:
    mid = statistics.median(values)
    if len(values) < 2 or mid == 0:
        return 0.0
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / abs(mid)
    return (max(values) - min(values)) / abs(mid)


def verdict(base: dict, new: dict) -> tuple[str, float]:
    """Returns (verdict, the wider of the two sides' spreads)."""
    bound, lower_is_better = base["bound"], base["better"] == "lower"
    a, b = statistics.median(base["values"]), statistics.median(new["values"])
    if bound == 0:  # absolute: failed_share
        return ("worse" if b > a else "ok"), 0.0
    worsening = ((b - a) if lower_is_better else (a - b)) / abs(a)
    if worsening > bound:
        return "worse", 0.0
    noise = max(spread(base["values"]), spread(new["values"]))
    if lower_is_better:
        all_better = max(new["values"]) < min(base["values"])
    else:
        all_better = min(new["values"]) > max(base["values"])
    if noise > bound and not all_better:
        return "unresolved", noise
    return "ok", noise


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    base, new = load_values(argv[0]), load_values(argv[1])
    print(f"{'workload':<15} {'metric':<19} {'base median':>14} {'new median':>14} "
          f"{'new/base':>9}  {'bound':>6} {'spread':>7}  verdict")
    counts = {"ok": 0, "worse": 0, "unresolved": 0}
    for key in base:
        workload, metric = key
        if key not in new:
            print(f"{workload:<15} {metric:<19} missing from {argv[1]}")
            counts["worse"] += 1
            continue
        b, n = base[key], new[key]
        word, noise = verdict(b, n)
        counts[word] += 1
        mb, mn = statistics.median(b["values"]), statistics.median(n["values"])
        ratio = f"{mn / mb:9.3f}" if mb else f"{'-':>9}"
        sign = "+" if b["better"] == "lower" else "-"
        print(f"{workload:<15} {metric:<19} {mb:>14.6g} {mn:>14.6g} {ratio}  "
              f"{sign}{b['bound']:<5.0%} {noise:>7.1%}  {word}"
              f"  (base {mb:.6g} {b['unit']}, {len(b['values'])}+{len(n['values'])} runs)")
    print(f"{counts['ok']} ok, {counts['worse']} worse, {counts['unresolved']} unresolved")
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
