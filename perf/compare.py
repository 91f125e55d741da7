"""Compare two sets of benchmark runs, metric by metric.

Usage, from the root of a checkout::

    python3 perf/compare.py BASE... -- NEW...

Each side lists run documents (the ``<workload>-s<seed>.json`` files
``perf/run.py`` writes to ``--out``) or directories holding them.  For
every (workload, metric) the table gives each side's median and quartiles,
the change, the pairs the new side won (runs are paired by seed), and a
verdict:

* ``improved``: the new side wins at least 9 of every 10 pairs (ties
  count for neither) and its median is better than the base median by
  more than the base's interquartile distance;
* ``unresolved``: fewer than 10 pairs; or the base's interquartile
  distance is wider than the metric's bound, unless every new run reads
  better than every base run;
* ``regressed``: the new median is worse than the base median by more
  than the bound;
* ``unchanged``: none of the above.

Bounds and directions come from ``BENCHMARK.json``; per-layer metrics
have no bound and get a verdict only when improved or clearly worse (the
mirror of the improved rule).  Every workload also gets a ``fail_ratio``
row: any rise in its mean over the runs is ``regressed``.  A pair whose
new run failed more operations than its base run never counts as a win,
since a gain does not count when more operations fail.  Exit status is 1
when any end-to-end metric or ``fail_ratio`` is regressed or unresolved.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

from run import SCHEMA
from stats import quartiles

HERE = Path(__file__).resolve().parent
#: Fewer pairs than this support no verdict but "unresolved" (or "-").
MIN_PAIRS = 10
#: The row every workload gets from its run documents' failure ratio.
FAIL = "fail_ratio"


def load(paths) -> list[dict]:
    """Run documents from files and directories (other JSON is skipped)."""
    docs = []
    for path in map(Path, paths):
        for f in sorted(path.glob("*.json")) if path.is_dir() else [path]:
            with open(f) as fh:
                doc = json.load(fh)
            if isinstance(doc, dict) and doc.get("schema") == SCHEMA:
                docs.append(doc)
    return docs


def series(docs) -> dict:
    """``{(workload, metric): {seed: value}}``, with ``fail_ratio``."""
    out: dict = {}
    for d in docs:
        metrics = {**d["metrics"], FAIL: {"value": d["fail_ratio"]}}
        for name, m in metrics.items():
            out.setdefault((d["workload"], name), {})[d["seed"]] = m["value"]
    return out


def verdict(base: dict, new: dict, better: str, bound: float | None,
            no_win=frozenset()) -> dict:
    """Compare ``{seed: value}`` samples; see the module docstring.  Pairs
    whose seed is in ``no_win`` never count as a win for the new side."""
    b, n = list(base.values()), list(new.values())
    sign = 1.0 if better == "lower" else -1.0  # sign * delta > 0 is worse
    bq1, bmed, bq3 = quartiles(b)
    nq1, nmed, nq3 = quartiles(n)
    seeds = sorted(set(base) & set(new))
    pairs = [(s, base[s], new[s]) for s in seeds] if seeds else [
        (None, x, y) for x, y in zip(b, n)
    ]
    wins = sum(1 for s, x, y in pairs
               if sign * (y - x) < 0 and s not in no_win)
    losses = sum(1 for _, x, y in pairs if sign * (y - x) > 0)
    iqr = bq3 - bq1
    delta = sign * (nmed - bmed)
    enough = len(pairs) >= MIN_PAIRS
    if bound == 0:
        # Failures: any rise of the mean is a regression, whatever the
        # number of pairs.
        v = "regressed" if sum(n) / len(n) > sum(b) / len(b) else "unchanged"
    elif enough and wins >= 0.9 * len(pairs) and delta < -iqr:
        v = "improved"
    elif bound is None:
        v = "worse" if enough and losses >= 0.9 * len(pairs) and delta > iqr \
            else "-"
    elif not enough:
        v = "unresolved"
    elif bmed and iqr / abs(bmed) > bound:
        beats_all = not no_win and all(
            sign * (y - x) < 0 for x in b for y in n
        )
        v = "improved" if beats_all else "unresolved"
    elif bmed and delta / abs(bmed) > bound:
        v = "regressed"
    else:
        v = "unchanged"
    return {
        "base": (bq1, bmed, bq3), "new": (nq1, nmed, nq3),
        "change": (nmed - bmed) / abs(bmed) if bmed else float("nan"),
        "wins": wins, "pairs": len(pairs), "verdict": v,
    }


def compare(base_docs, new_docs, bench: dict) -> list[tuple]:
    """One row ``(workload, metric, result)`` per metric both sides have."""
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    specs[FAIL] = {"better": "lower", "bound": 0}
    base, new = series(base_docs), series(new_docs)
    failed = {}
    for side, docs in (("base", base_docs), ("new", new_docs)):
        for d in docs:
            k = (side, d["workload"], d["seed"])
            failed[k] = failed.get(k, 0) + d["failed"]
    rows = []
    for key in sorted(set(base) & set(new)):
        spec = specs.get(key[1])
        if spec is None:
            continue
        more_failures = frozenset(
            s for s in new[key]
            if failed[("new", key[0], s)] > failed.get(("base", key[0], s), 0)
        )
        rows.append((*key, verdict(base[key], new[key], spec["better"],
                                   spec.get("bound"), more_failures)))
    return rows


def _quartiles(q) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    cut = argv.index("--")
    with open(HERE.parent / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    rows = compare(load(argv[:cut]), load(argv[cut + 1:]), bench)
    if not rows:
        print("compare: no metric appears on both sides", file=sys.stderr)
        return 2
    e2e = {m["name"] for m in bench["end_to_end"]} | {FAIL}
    print(f"{'workload':12s} {'metric':32s} {'base median [q1, q3]':>32s} "
          f"{'new median [q1, q3]':>32s} {'change':>8s} {'won':>7s}  verdict")
    bad = 0
    for workload, metric, r in rows:
        change = ("-" if math.isnan(r["change"])
                  else f"{100 * r['change']:+.1f}%")
        print(f"{workload:12s} {metric:32s} {_quartiles(r['base']):>32s} "
              f"{_quartiles(r['new']):>32s} {change:>8s} "
              f"{r['wins']:>3d}/{r['pairs']:<3d}  {r['verdict']}")
        if metric in e2e and r["verdict"] in ("regressed", "unresolved"):
            bad += 1
    print(f"compare: {len(rows)} rows, {bad} end-to-end regressed or "
          "unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
