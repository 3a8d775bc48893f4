"""Summarize and compare saved benchmark runs.

Save each run's standard output (``run.py ... > runs/lib-warm-3.txt``);
a file may hold several runs.  Then::

    python3 layerbench/compare.py spread runs/*.txt
    python3 layerbench/compare.py diff --base base/*.txt --new new/*.txt

``spread`` prints, per workload and end-to-end metric, the median and
the quartile spread (Q3 - Q1) / median of the runs, next to the metric's
bound, and exits 1 if any spread (``setup_s`` included) exceeds its
bound or any run was incorrect.  ``diff`` prints each side's median and flags a metric whose new
median is worse than the base median by more than its bound; it also
names every seed whose ``cm5_sim_ms`` changed, since that value is a
pure function of the seed and the code.  Runs from
different host classes (nproc, arch) are never compared: ``diff`` exits
2 when the two sides' stamps disagree.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import host_class  # noqa: E402
from spec import END_TO_END  # noqa: E402

BOUNDS = {n: (b, bound) for n, _u, b, bound in END_TO_END}


def load(paths) -> list[tuple[dict, dict]]:
    """``(stamp, result)`` for every run found in the files."""
    runs = []
    for path in paths:
        stamp = None
        with open(path) as f:
            for line in f:
                if line.startswith("stamp "):
                    stamp = json.loads(line[6:])
                elif line.startswith('{"correct"') and stamp is not None:
                    runs.append((stamp, json.loads(line)))
                    stamp = None
    return runs


def by_metric(runs) -> dict:
    """``{(workload, metric): [values]}`` over the untraced runs."""
    out = defaultdict(list)
    for stamp, res in runs:
        if stamp.get("trace"):
            continue
        for name, m in res["metrics"].items():
            out[(stamp["workload"], name)].append(m["value"])
    return out


def spread(values) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def host_classes(runs) -> set:
    return {host_class(stamp) for stamp, _ in runs}


def cmd_spread(paths) -> int:
    runs = load(paths)
    bad = 0
    print(f"{'workload':12s} {'metric':16s} {'n':>3s} {'median':>12s} "
          f"{'spread':>7s} {'bound':>6s}")
    for (wl, name), vals in sorted(by_metric(runs).items()):
        _better, bound = BOUNDS.get(name, (None, None))
        s = spread(vals) if len(vals) >= 2 else float("nan")
        flag = ""
        if bound is not None and s > bound:
            flag = "  > bound"
            bad += 1
        elif bound is not None and s > bound / 3:
            flag = "  > bound/3"
        print(f"{wl:12s} {name:16s} {len(vals):3d} {statistics.median(vals):12.5f} "
              f"{s:7.4f} {bound if bound is not None else float('nan'):6.3f}{flag}")
    failed = sum(1 for _s, r in runs if not r["correct"] or r["failed"])
    print(f"{len(runs)} run(s), {failed} incorrect, host classes {sorted(host_classes(runs))}")
    return 1 if bad or failed else 0


def cmd_diff(base_paths, new_paths) -> int:
    base, new = load(base_paths), load(new_paths)
    classes = host_classes(base) | host_classes(new)
    if len(classes) != 1:
        print(f"refusing to compare runs from different host classes: {sorted(classes)}")
        return 2
    b, n = by_metric(base), by_metric(new)
    worse = 0
    for key in sorted(set(b) & set(n)):
        better, bound = BOUNDS[key[1]]
        mb, mn = statistics.median(b[key]), statistics.median(n[key])
        change = (mn - mb) / mb if mb else 0.0
        regress = (change > bound) if better == "lower" else (-change > bound)
        worse += regress
        print(f"{key[0]:12s} {key[1]:16s} {mb:12.5f} -> {mn:12.5f} "
              f"{change:+8.2%}{'  REGRESSION' if regress else ''}")
    for (wl, seed), value in sorted(cm5_by_seed(base).items()):
        other = cm5_by_seed(new).get((wl, seed))
        if other is not None and other != value:
            print(f"{wl:12s} cm5_sim_ms changed on seed {seed}: {value!r} -> {other!r}")
    return 1 if worse else 0


def cm5_by_seed(runs) -> dict:
    return {(stamp["workload"], stamp["seed"]): res["metrics"]["cm5_sim_ms"]["value"]
            for stamp, res in runs
            if not stamp.get("trace") and "cm5_sim_ms" in res["metrics"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("logs", nargs="+")
    dp = sub.add_parser("diff")
    dp.add_argument("--base", nargs="+", required=True)
    dp.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)
    if args.cmd == "spread":
        return cmd_spread(args.logs)
    return cmd_diff(args.base, args.new)


if __name__ == "__main__":
    sys.exit(main())
