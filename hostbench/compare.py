#!/usr/bin/env python3
"""Compares hostbench records of a base and a changed build.

    python3 hostbench/compare.py --base A1.json A2.json ... \
        --change B1.json B2.json ...

Records are the JSON files hostbench/run.py keeps under
<build dir>/results/. All records must come from the same environment
(build type, compiler, nproc, OpenMP threads, profile, workload, trace
flag); otherwise the comparison is refused with exit code 2. Host metrics
are compared as medians against the bounds of BENCHMARK.json. Modelled
outputs and the digest are compared for every seed present on both sides
and must match exactly (exit code 1 otherwise, or when a bounded metric
regressed).
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SAME = ("build_type", "compiler", "nproc", "omp_threads", "profile", "workload",
        "trace")
MODELLED = ("modelled_device_s", "modelled_energy_j")


def load(paths):
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            records.append(json.load(f))
    return records


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args()
    base, change = load(args.base), load(args.change)

    reference = base[0]["environment"]
    for record in base + change:
        env = record["environment"]
        differing = [k for k in SAME if env.get(k) != reference.get(k)]
        if differing:
            print("refusing to compare: environments differ in " +
                  ", ".join(f"{k} ({reference.get(k)} vs {env.get(k)})"
                            for k in differing))
            return 2

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    sheet = "layers" if reference.get("trace") else "end_to_end"
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    print(f"{reference['workload']}: {len(base)} base, {len(change)} change "
          f"records")
    names = [n for n in base[0][sheet] if all(n in r[sheet] for r in change)]
    for name in names:
        a = statistics.median(r[sheet][name]["value"] for r in base)
        b = statistics.median(r[sheet][name]["value"] for r in change)
        unit = base[0][sheet][name]["unit"]
        verdict = ""
        if name in bounds and a:
            worse = (b - a) / a if bounds[name]["better"] == "lower" \
                else (a - b) / a
            verdict = f"worse by {worse:+.1%}" if worse > 0 else "not worse"
            if worse > bounds[name]["bound"]:
                verdict += f" — exceeds bound {bounds[name]['bound']}"
                ok = False
        print(f"  {name:40s} {a:14.6g} -> {b:14.6g} {unit:6s} {verdict}")

    by_seed = {r["environment"]["seed"]: r for r in base}
    for record in change:
        seed = record["environment"]["seed"]
        if seed not in by_seed:
            continue
        old = by_seed[seed]
        same = old["digest"] == record["digest"] and all(
            old["info"][m]["value"] == record["info"][m]["value"]
            for m in MODELLED)
        print(f"  seed {seed}: modelled digest {old['digest']} vs "
              f"{record['digest']}: {'identical' if same else 'DIFFERENT'}")
        ok = ok and same
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
