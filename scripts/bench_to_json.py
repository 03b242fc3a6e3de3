#!/usr/bin/env python3
"""Convert bench logs to a BENCH_<n>.json artifact.

Usage: bench_to_json.py LOG [LOG...]

Scrapes two kinds of `CSV,` rows out of each log and emits one JSON
object on stdout keyed by log basename, so CI uploads a stable
machine-readable perf trajectory per commit:

* throughput rows with the shared schema
  `sketch,mode,items,ns_per_item,mitems_per_sec,speedup_vs_scalar`
  (emitted by bench_table1's throughput section,
  bench_sharded_throughput's S=1 section, and bench_update_time);
* cache-sweep rows with the schema
  `sketch,skew,cache_words,total_writes,nvm_writes,cache_hits,
  absorbed_writes,absorbed_frac,dirty_evictions,max_cell_wear,reuse_p50`
  (emitted by bench_nvm_wear --cache; cache_words == 0 is the uncached
  control row).

Rows are told apart by field count (6 vs 11); the engine's run-report CSV
rows have a different count and are ignored, as are header lines.
"""

import json
import os
import sys

SCHEMA = "sketch,mode,items,ns_per_item,mitems_per_sec,speedup_vs_scalar"
MODES = ("scalar", "batch")
CACHE_SCHEMA = (
    "sketch,skew,cache_words,total_writes,nvm_writes,cache_hits,"
    "absorbed_writes,absorbed_frac,dirty_evictions,max_cell_wear,reuse_p50"
)


def scrape(path):
    rows = []
    cache_rows = []
    with open(path, encoding="utf-8", errors="replace") as fh:
        for line in fh:
            if not line.startswith("CSV,"):
                continue
            fields = line.rstrip("\n").split(",")[1:]
            if len(fields) == 6 and fields[1] in MODES:
                sketch, mode, items, ns, mitems, speedup = fields
                try:
                    rows.append(
                        {
                            "sketch": sketch,
                            "mode": mode,
                            "items": int(items),
                            "ns_per_item": float(ns),
                            "mitems_per_sec": float(mitems),
                            "speedup_vs_scalar": float(speedup),
                        }
                    )
                except ValueError:
                    continue  # the header line, or a malformed row
            elif len(fields) == 11:
                try:
                    cache_rows.append(
                        {
                            "sketch": fields[0],
                            "skew": float(fields[1]),
                            "cache_words": int(fields[2]),
                            "total_writes": int(fields[3]),
                            "nvm_writes": int(fields[4]),
                            "cache_hits": int(fields[5]),
                            "absorbed_writes": int(fields[6]),
                            "absorbed_frac": float(fields[7]),
                            "dirty_evictions": int(fields[8]),
                            "max_cell_wear": int(fields[9]),
                            "reuse_p50": int(fields[10]),
                        }
                    )
                except ValueError:
                    continue  # the cache-sweep header line
    return rows, cache_rows


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out = {"schema": SCHEMA, "cache_schema": CACHE_SCHEMA, "benches": {}}
    failures = []
    for path in argv[1:]:
        name = os.path.splitext(os.path.basename(path))[0]
        rows, cache_rows = scrape(path)
        if not rows and not cache_rows:
            failures.append(path)
            continue
        bench = {}
        if rows:
            bench["rows"] = rows
            bench["batch_speedups"] = {
                r["sketch"]: r["speedup_vs_scalar"]
                for r in rows
                if r["mode"] == "batch"
            }
        if cache_rows:
            bench["cache_rows"] = cache_rows
            # Headline: per sketch, the absorbed-write fraction at the
            # largest swept cache on the Zipf(1.1) stream — the number the
            # architectural-absorption argument stands or falls on.
            biggest = max(r["cache_words"] for r in cache_rows)
            bench["cache_absorbed_fracs"] = {
                r["sketch"]: r["absorbed_frac"]
                for r in cache_rows
                if r["cache_words"] == biggest and abs(r["skew"] - 1.1) < 1e-9
            }
        out["benches"][name] = bench
    json.dump(out, sys.stdout, indent=2)
    print()
    if failures:
        print("no scrapeable CSV rows found in: %s" % ", ".join(failures),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
