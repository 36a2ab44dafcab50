"""Summarize or compare saved benchmark output.

    python3 perfbench/compare.py RUNS.txt               # spread of one set
    python3 perfbench/compare.py BASE.txt NEW.txt       # NEW against BASE

Each file holds the concatenated stdout of any number of ``run.py`` runs;
only their ``{"record": ...}`` lines are read. For every workload and
metric it prints the median, the quartiles and the spread (quartile
distance over median), as the acceptance rule of BENCHMARK.json measures
it; with two sets also the change of the median against the metric's bound
and whether the output fingerprints of equal seeds match. Results recorded
on different kernel backends are refused (exit 3): their times do not
compare.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith('{"record"'):
                records.append(json.loads(line)["record"])
    return records


def spread(values):
    values = sorted(values)
    med = statistics.median(values)
    if len(values) < 2:
        return med, values[0], values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def by_metric(records):
    out = defaultdict(lambda: defaultdict(list))
    for rec in records:
        for name, value in rec["metrics"].items():
            out[(rec["workload"], rec["trace"])][name].append(value)
    return out


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(path) for path in argv]
    backends = {rec["env"]["backend"] for records in sets for rec in records}
    if len(backends) > 1:
        print(f"refusing to compare results from different backends: {sorted(backends)}",
              file=sys.stderr)
        return 3
    meta = declared()
    failures = sum(rec["failed"] for records in sets for rec in records)
    print(f"backend {backends.pop() if backends else '?'}; failed operations: {failures}")
    base = by_metric(sets[0])
    new = by_metric(sets[-1]) if len(sets) == 2 else None
    for key in sorted(base):
        workload, trace = key
        print(f"\n{workload} (trace {trace}, {len(next(iter(base[key].values())))} runs)")
        for name, values in base[key].items():
            med, q1, q3, sp = spread(values)
            bound = meta.get(name, {}).get("bound")
            line = f"  {name:32s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {sp:7.2%}"
            if bound is not None:
                line += f"  (bound {bound:.0%})"
            if new is not None and name in new.get(key, {}):
                nmed = spread(new[key][name])[0]
                change = (nmed - med) / med if med else 0.0
                worse = change if meta.get(name, {}).get("better", "lower") == "lower" else -change
                line += f"  -> {nmed:12.6g} ({change:+.2%})"
                if bound is not None and worse > bound:
                    line += "  WORSE THAN BOUND"
            print(line)
    if len(sets) == 2:
        seen = {(r["workload"], r["seed"]): r["fingerprint"] for r in sets[0]}
        for rec in sets[1]:
            old = seen.get((rec["workload"], rec["seed"]))
            if old is not None and old != rec["fingerprint"]:
                print(f"fingerprint changed: {rec['workload']} seed {rec['seed']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
