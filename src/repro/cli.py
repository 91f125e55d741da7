"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
layout   build a layout for a named network, print metrics, optionally
         validate and write SVG/JSON
sweep    expand a declarative sweep (families x sizes x L x scheme)
         into jobs, run them across worker processes backed by a
         content-addressed layout cache, tabulate the merged result
zoo      lay out the whole network zoo at a given L and tabulate
figures  regenerate the paper's collinear figures as ASCII
predict  print the paper's closed-form predictions for a family
simulate run a traffic kernel through a network on its layout
cost     price a layout under the cost model (area, layers, yield)
fold     geometrically fold a network's Thompson layout into L layers
stack    3-D deck stacking for a torus (A x B x C of rings)
stats    run the zoo traced and print a pipeline-phase timing breakdown
fuzz     differential fuzzing: random networks through every scheme,
         cross-checked against independent oracles
watch    live status console for a sweep/fuzz run directory: per-worker
         heartbeats, jobs/sec, ETA, cache hit-rate, log tail
         (``--once --json`` for scripts and CI)
bench-diff  compare two bench/trajectory JSONs and flag perf
         regressions past a threshold (nonzero exit on regression)
serve    run the layout daemon: an asyncio HTTP/JSON server answering
         (network, scheme, layers) requests from the layout cache,
         coalescing duplicate in-flight keys, building misses on a
         persistent worker pool, streaming sweeps as JSONL
loadgen  replay a request trace (save_trace JSONL rows reinterpreted
         as [network, layers, start]) against a live server and
         report p50/p90/p99 latency from repro.obs histograms

Every command also accepts ``--trace`` (print the span tree after the
run), ``--report FILE`` (write a machine-readable JSON run report),
``--trace-out FILE`` (write a Chrome trace-event file, loadable in
ui.perfetto.dev), ``--events-out FILE`` (write a JSONL event log for
grep/jq), ``--log-out FILE`` (structured JSONL logging; threshold via
``REPRO_LOG_LEVEL``), and ``--metrics-out FILE`` (Prometheus text
exposition, refreshed live during sweeps); see :mod:`repro.obs`.
``sweep`` and ``fuzz`` take ``--run-dir DIR`` to keep heartbeats, the
log, and the run manifest where ``repro watch`` can find them.

Network specs for ``layout`` are ``family:arg,arg,...``, e.g.::

    python -m repro layout hypercube:8 --layers 8 --svg cube.svg
    python -m repro layout kary:4,3 --layers 4 --validate
    python -m repro layout butterfly:4 --json bf.json
    python -m repro predict hypercube:10 --layers 8
"""

from __future__ import annotations

import argparse
import os
import sys

from repro import obs
from repro.obs import live
from repro.obs import logging as olog
from repro.batch.spec import FAMILIES as _FAMILIES
from repro.batch.spec import SCHEMES, SweepJob, parse_network
from repro.bench.harness import print_table
from repro.core import layout_network, measure, paper_prediction
from repro.grid.io import dump_layout
from repro.grid.validate import check_topology, validate_layout
from repro.viz import ascii_collinear, svg_layout

__all__ = ["main", "parse_network"]


def _cmd_layout(args) -> int:
    net = parse_network(args.network)
    lay = layout_network(net, layers=args.layers)
    if args.validate:
        validate_layout(lay)
        check_topology(lay, net.edges)
        print("validation: OK (multilayer grid model + exact topology)")
    m = measure(lay)
    print_table(
        f"{net.name} under L={args.layers}",
        ["N", "links", "W", "H", "area", "volume", "max wire"],
        [[net.num_nodes, net.num_edges, m.width, m.height, m.area,
          m.volume, m.max_wire]],
    )
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(svg_layout(lay))
        print(f"SVG written to {args.svg}")
    if args.json:
        dump_layout(lay, args.json)
        print(f"JSON written to {args.json}")
    return 0


#: The network zoo ``zoo`` and ``stats`` lay out, one spec per family.
ZOO = (
    "ring:12", "kary:4,2", "hypercube:5", "folded-hypercube:4",
    "complete:10", "ghc:4,4", "butterfly:3", "wrapped-butterfly:3",
    "isn:3", "ccc:4", "reduced-hypercube:4", "hsn:4,2", "star:4",
    "scc:4", "shuffle-exchange:5", "de-bruijn:5",
)


def _zoo_networks() -> list:
    return [parse_network(spec) for spec in ZOO]


def _zoo_jobs(layers: int) -> list:
    return [SweepJob(i, spec, layers) for i, spec in enumerate(ZOO)]


def _cmd_zoo(args) -> int:
    from repro.batch.runner import run_sweep_job

    rows = []
    for job in _zoo_jobs(args.layers):
        r = run_sweep_job(job)
        m = r.metrics
        rows.append([
            job.build_network().name, r.num_nodes, m["area"], m["volume"],
            m["max_wire"],
        ])
    print_table(
        f"network zoo at L={args.layers}",
        ["network", "N", "area", "volume", "max wire"],
        rows,
    )
    return 0


def _cmd_sweep(args) -> int:
    import json as _json

    from repro.batch import SweepRunner, SweepSpec, standard_family_sweep

    if args.spec_file:
        spec = SweepSpec.from_file(args.spec_file)
    elif args.networks:
        spec = SweepSpec(
            networks=list(args.networks),
            layers=list(args.layers),
            scheme=args.scheme,
        )
    else:
        spec = standard_family_sweep(tuple(args.layers))
        spec.scheme = args.scheme
    runner = SweepRunner(
        cache_dir=args.cache_dir,
        workers=args.workers,
        validate=args.validate,
        run_dir=args.run_dir,
        metrics_out=getattr(args, "metrics_out", None),
        stall_after_s=args.stall_after,
    )
    res = runner.run(spec)
    rows = [
        [
            r.network, r.scheme, r.layers, r.num_nodes, r.num_edges,
            r.metrics.get("area"), r.metrics.get("volume"),
            r.metrics.get("max_wire"), r.source,
            f"{r.elapsed_s * 1e3:.1f}",
        ]
        for r in res.results
    ]
    print_table(
        f"sweep {spec.name!r}: {res.jobs} job(s), "
        f"{res.workers} worker(s), {res.elapsed_s:.2f}s",
        ["network", "scheme", "L", "N", "links", "area", "volume",
         "max wire", "source", "ms"],
        rows,
    )
    if args.cache_dir:
        st = res.cache_stats
        print(
            f"cache: {st.hits} hit(s), {st.misses} miss(es), "
            f"{st.writes} write(s), {st.corrupt} corrupt"
        )
    lost = res.lost_workers()
    if lost:
        print(
            "WARNING: worker(s) "
            + ", ".join(str(w) for w in lost)
            + " lost (see worker_health / the run log); merged rows "
            "cover the surviving workers only"
        )
    if args.json:
        with open(args.json, "w") as fh:
            _json.dump(res.as_dict(), fh, indent=2)
        print(f"sweep result written to {args.json}")
    return 0


def _cmd_stats(args) -> int:
    """Run the zoo with tracing on; print the phase timing breakdown."""
    import time as _time

    from repro.batch.cache import LayoutCache
    from repro.batch.runner import run_sweep_job

    if getattr(args, "mem", False):
        return _cmd_stats_mem(args)
    cache = None
    if getattr(args, "cache_dir", None):
        cache = LayoutCache(args.cache_dir)
    obs.enable()
    jobs = _zoo_jobs(args.layers)
    for job in jobs:
        t0 = _time.perf_counter()
        with obs.span("network", network=job.network):
            run_sweep_job(job, cache)
        obs.observe(
            "stats.network_ms", (_time.perf_counter() - t0) * 1e3
        )
    totals = obs.phase_totals()
    grand = sum(t["self_s"] for t in totals.values()) or 1.0
    rows = [
        [
            name,
            t["calls"],
            f"{t['total_s'] * 1e3:,.2f}",
            f"{t['self_s'] * 1e3:,.2f}",
            f"{100 * t['self_s'] / grand:.1f}%",
        ]
        for name, t in sorted(
            totals.items(), key=lambda kv: -kv[1]["self_s"]
        )
    ]
    print_table(
        f"pipeline phase timings, zoo ({len(jobs)} networks) "
        f"at L={args.layers}",
        ["phase", "calls", "total ms", "self ms", "self share"],
        rows,
    )
    snap = obs.registry().snapshot()
    if snap["counters"]:
        print_table(
            "pipeline counters (cache.* appear when --cache-dir is set)",
            ["counter", "value"],
            [[name, v] for name, v in sorted(snap["counters"].items())],
        )
    hists = snap["histograms"]
    if hists:
        print_table(
            "histogram summaries (percentiles estimated from buckets)",
            ["histogram", "count", "mean", "p50", "p90", "p99"],
            [
                [
                    name, h["count"], f"{h['mean']:.2f}",
                    f"{h['p50']:.2f}", f"{h['p90']:.2f}",
                    f"{h['p99']:.2f}",
                ]
                for name, h in sorted(hists.items())
            ],
        )
        _print_exemplars(hists)
    return 0


def _print_exemplars(hists: dict) -> None:
    """One row per retained exemplar: the trace behind each bucket."""
    rows = [
        [name, key, f"{ex['value']:.2f}", ex["trace_id"]]
        for name, h in sorted(hists.items())
        for key, ex in sorted((h.get("exemplars") or {}).items())
    ]
    if rows:
        print_table(
            "histogram exemplars (last trace observed per bucket)",
            ["histogram", "bucket", "ms", "trace id"],
            rows,
        )


def _cmd_stats_mem(args) -> int:
    """Layout-representation memory accounting over the zoo.

    For each network: bytes held by the wire/placement object graph
    versus the flat :class:`~repro.grid.table.WireTable`, and the
    reduction ratio.  The E7h performance gate asserts the ratio on
    the paper-scale 10-cube; this command is the interactive view.
    """
    from repro.grid.table import object_graph_bytes

    rows = []
    tot_obj = tot_tab = 0
    for net in _zoo_networks():
        lay = layout_network(net, layers=args.layers)
        table = lay.wire_table()
        obj = object_graph_bytes(lay)
        tab = table.nbytes()
        tot_obj += obj
        tot_tab += tab
        rows.append([
            net.name, net.num_nodes, table.num_wires, table.num_segments,
            f"{obj:,}", f"{tab:,}", f"{obj / tab:.1f}x",
        ])
    rows.append([
        "TOTAL", None, None, None,
        f"{tot_obj:,}", f"{tot_tab:,}", f"{tot_obj / tot_tab:.1f}x",
    ])
    print_table(
        f"layout representation memory, zoo at L={args.layers}",
        ["network", "N", "wires", "segments", "object graph B",
         "wire table B", "reduction"],
        rows,
    )
    return 0


def _cmd_figures(args) -> int:
    from repro.collinear import (
        complete_recursive,
        hypercube_recursive,
        kary_recursive,
    )

    for title, lay in (
        ("Figure 2: 3-ary 2-cube (8 tracks)", kary_recursive(3, 2)),
        ("Figure 3: K9 (20 tracks)", complete_recursive(9)),
        ("Figure 4: 4-cube (10 tracks)", hypercube_recursive(4)),
    ):
        print(f"\n=== {title} ===")
        print(ascii_collinear(lay))
    return 0


def _cmd_predict(args) -> int:
    family, _, argstr = args.network.partition(":")
    params = [int(a) for a in argstr.split(",") if a.strip()]
    p = paper_prediction(family, *params, layers=args.layers)
    print_table(
        f"paper leading terms: {family}{tuple(params)} at L={args.layers}",
        ["N", "area", "volume", "max wire", "path wire"],
        [[p.num_nodes, round(p.area, 1), round(p.volume, 1),
          None if p.max_wire is None else round(p.max_wire, 1),
          None if p.path_wire is None else round(p.path_wire, 1)]],
    )
    return 0


def _cmd_simulate(args) -> int:
    import json as _json

    from repro.routing import (
        WORKLOAD_KINDS,
        all_to_all,
        bit_complement,
        hot_spot,
        knee_point,
        load_trace,
        make_workload,
        random_permutation,
        saturation_sweep,
        simulate_fast,
        transpose,
    )

    net = parse_network(args.network)
    lay = layout_network(net, layers=args.layers)
    classic = {
        "bit-complement": bit_complement,
        "transpose": transpose,
        "random": random_permutation,
        "all-to-all": all_to_all,
        "hot-spot": hot_spot,
    }

    if args.saturation:
        rows = saturation_sweep(
            net,
            rates=args.saturation,
            duration=args.duration,
            workload=(
                args.kernel if args.kernel in WORKLOAD_KINDS else "uniform"
            ),
            seed=args.seed,
            layout=lay,
            mode=args.mode,
            message_length=args.message_length,
        )
        knee = knee_point(rows)
        if knee is None and len(args.saturation) < 2:
            print(
                "saturation: knee detection needs >= 2 rates to "
                "bracket a knee; reporting knee=none for this "
                f"{len(args.saturation)}-rate sweep"
            )
        print_table(
            f"{net.name} L={args.layers}: saturation sweep "
            f"(knee at {'none in range' if knee is None else knee})",
            ["rate", "offered", "messages", "avg latency", "p50", "p99",
             "max util"],
            [[r["rate"], f"{r['offered']:.3f}", r["messages"],
              f"{r['avg_latency']:.1f}", r["p50"], r["p99"],
              f"{r['max_utilization']:.2f}"] for r in rows],
        )
        if args.json:
            with open(args.json, "w") as fh:
                _json.dump(
                    {"network": net.name, "layers": args.layers,
                     "knee": knee, "rows": rows},
                    fh, indent=2,
                )
                fh.write("\n")
            print(f"sweep written to {args.json}")
        return 0

    if args.trace_file:
        msgs = make_workload("trace", net, trace=load_trace(args.trace_file))
    elif args.kernel in classic:
        msgs = classic[args.kernel](net)
    elif args.kernel in WORKLOAD_KINDS:
        msgs = make_workload(
            args.kernel, net, seed=args.seed, rate=args.rate,
            duration=args.duration,
        )
    else:
        known = ", ".join([*classic, *WORKLOAD_KINDS])
        raise SystemExit(
            f"unknown kernel {args.kernel!r}; known: {known}"
        )
    res = simulate_fast(
        net, msgs, layout=lay, mode=args.mode,
        message_length=args.message_length,
    )
    print_table(
        f"{net.name} L={args.layers}: {args.kernel} "
        f"({args.mode})",
        ["messages", "makespan", "avg latency", "p99", "max latency",
         "max link load"],
        [[res.messages, res.makespan, f"{res.avg_latency:.1f}",
          res.latency_p99, res.max_latency, res.max_link_load]],
    )
    if args.json:
        with open(args.json, "w") as fh:
            _json.dump(res.as_dict(), fh, indent=2)
            fh.write("\n")
        print(f"result written to {args.json}")
    return 0


def _cmd_cost(args) -> int:
    from repro.core.cost import CostModel, chip_cost

    net = parse_network(args.network)
    model = CostModel(defect_density=args.defect_density)
    rows = []
    for L in args.layer_sweep or [args.layers]:
        lay = layout_network(net, layers=L)
        c = chip_cost(lay, model)
        rows.append([L, c.area, f"{c.yield_fraction:.3f}", f"{c.total:,.1f}"])
    print_table(
        f"{net.name} chip cost",
        ["L", "area", "yield", "cost"],
        rows,
    )
    return 0


def _cmd_fold(args) -> int:
    from repro.core.folding import fold_layout

    net = parse_network(args.network)
    base = layout_network(net, layers=2)
    folded = fold_layout(base, args.layers)
    validate_layout(folded)
    mb, mf = measure(base), measure(folded)
    print_table(
        f"folding {net.name} into L={args.layers}",
        ["", "area", "volume", "max wire"],
        [
            ["Thompson", mb.area, mb.volume, mb.max_wire],
            ["folded", mf.area, mf.volume, mf.max_wire],
        ],
    )
    if args.svg:
        from repro.viz import svg_layer_stack

        with open(args.svg, "w") as fh:
            fh.write(svg_layer_stack(folded))
        print(f"exploded SVG written to {args.svg}")
    return 0


def _cmd_stack(args) -> int:
    from repro.core.threedee import layout_product_3d
    from repro.topology import Ring

    k = args.k
    lay = layout_product_3d(Ring(k), Ring(k), Ring(k), layers=args.layers)
    validate_layout(lay)
    m = measure(lay)
    two_d = measure(
        layout_network(parse_network(f"kary:{k},3"), layers=args.layers)
    )
    print_table(
        f"{k}x{k}x{k} torus, 3-D decks vs 2-D at L={args.layers}",
        ["", "area", "volume", "max wire"],
        [
            ["3-D stacked", m.area, m.volume, m.max_wire],
            ["2-D layout", two_d.area, two_d.volume, two_d.max_wire],
        ],
    )
    if args.svg:
        from repro.viz import svg_layer_stack

        with open(args.svg, "w") as fh:
            fh.write(svg_layer_stack(lay))
        print(f"exploded SVG written to {args.svg}")
    return 0


def _cmd_fuzz(args) -> int:
    from repro.check import run_fuzz, save_counterexample, shrink_failing_case
    from repro.check.differential import STAGES

    stages = tuple(args.stages) if args.stages else None
    kinds = tuple(args.kinds) if args.kinds else None
    rep = run_fuzz(
        seed=args.seed,
        budget=args.budget,
        max_nodes=args.max_nodes,
        stages=stages,
        kinds=kinds,
        max_failures=args.max_failures,
        workers=args.workers,
        cache_dir=args.cache_dir,
        run_dir=args.run_dir,
    )
    stage_cols = list(stages or STAGES)
    print_table(
        f"differential fuzz: seed={rep.seed} budget={rep.budget}",
        ["cases", "violations", "elapsed s"] + stage_cols,
        [[rep.cases_run, rep.violations, f"{rep.elapsed_s:.1f}"]
         + [rep.stage_counts.get(s, 0) for s in stage_cols]],
    )
    if rep.ok:
        print("fuzz: OK (no invariant violations)")
        return 0
    for res in rep.failures:
        print(f"\nFAIL {res.case.describe()}")
        for v in res.violations:
            print(f"  [{v.stage}/{v.invariant}] {v.detail}")
        if args.shrink:
            small = shrink_failing_case(res)
            print(
                f"  shrunk to N={small.num_nodes} E={small.num_edges}: "
                f"{sorted(small.edges)}"
            )
            if args.corpus_dir:
                path = save_counterexample(
                    args.corpus_dir, small,
                    case=res.case, violations=res.violations,
                )
                print(f"  counterexample saved to {path}")
    print(f"\nfuzz: {rep.violations} violation(s) in "
          f"{len(rep.failures)} case(s)")
    return 1


def _cmd_serve(args) -> int:
    """Run the layout daemon until interrupted."""
    import asyncio

    from repro.serve import ServeConfig, run_server

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_dir=args.cache_dir,
        validate=args.validate,
        quota_rate=args.quota_rate,
        quota_burst=args.quota_burst,
        max_inflight=args.max_inflight,
        request_timeout_s=args.request_timeout,
        run_dir=args.run_dir,
        ready_file=args.ready_file,
        trace_sample=args.trace_sample,
        slo_latency_ms=args.slo_latency_ms,
        slo_target=args.slo_target,
        debug_requests=args.debug_requests,
    )
    try:
        asyncio.run(run_server(config))
    except KeyboardInterrupt:
        print("repro serve: interrupted, shutting down")
    return 0


def _cmd_loadgen(args) -> int:
    """Replay a request trace against a server; report percentiles."""
    import json as _json

    from repro.routing.traffic import load_trace, save_trace
    from repro.serve.loadgen import run_loadgen, synth_rows

    if args.trace_file:
        rows = load_trace(args.trace_file)
    else:
        networks = args.networks or ["ring:8", "hypercube:3", "kary:3,2"]
        rows = synth_rows(
            networks,
            args.requests,
            layers=tuple(args.layers),
            seed=args.seed,
        )
    if args.save_trace:
        n = save_trace(args.save_trace, rows)
        print(f"request trace ({n} rows) written to {args.save_trace}")
    report = run_loadgen(
        args.host,
        args.port,
        rows,
        concurrency=args.concurrency,
        cycle_s=args.cycle_s,
        client_id=args.client,
        scheme=args.scheme,
        timeout=args.timeout,
        retries=args.retries,
        slowest=args.slowest,
    )
    lat = report["latency_ms"]
    print_table(
        f"loadgen vs {report['target']}: {report['ok']}/"
        f"{report['requests']} ok, {report['five_xx']} 5xx, "
        f"{report['retried']} retried, {report['elapsed_s']}s "
        f"({report['rps']} req/s)",
        ["metric", "ms"],
        [
            ["p50", lat["p50"]],
            ["p90", lat["p90"]],
            ["p99", lat["p99"]],
            ["mean", lat["mean"]],
            ["min", lat["min"]],
            ["max", lat["max"]],
        ],
    )
    if report["status"]:
        print(
            "status counts: "
            + ", ".join(
                f"{code}x{n}" for code, n in report["status"].items()
            )
        )
    if report.get("slowest"):
        print_table(
            f"slowest {len(report['slowest'])} requests "
            "(fetch /debug/trace/<trace id> on the server for "
            "the span tree)",
            ["ms", "network", "L", "source", "request id", "trace id"],
            [
                [
                    s["latency_ms"], s["network"], s["layers"],
                    s["source"] or "-", s["request_id"] or "-",
                    s["trace_id"] or "-",
                ]
                for s in report["slowest"]
            ],
        )
    if args.json:
        with open(args.json, "w") as fh:
            _json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"loadgen report written to {args.json}")
    if report["five_xx"] or not report["ok"]:
        return 1
    return 0


def _fmt_bytes(n) -> str:
    if not isinstance(n, (int, float)):
        return "-"
    return f"{n / (1 << 20):.1f}M"


def _fmt_eta(seconds) -> str:
    if seconds is None:
        return "-"
    seconds = int(seconds)
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


def _print_watch(snap: dict) -> None:
    man = snap.get("manifest") or {}
    tot = snap["totals"]
    jobs_total = tot["jobs_total"]
    print(
        f"run {snap['run_dir']}  kind={man.get('kind', '?')}  "
        f"state={man.get('state', 'running')}"
    )
    done = tot["jobs_done"]
    frac = (
        f" ({100 * done / jobs_total:.0f}%)"
        if isinstance(jobs_total, int) and jobs_total
        else ""
    )
    rate = tot["jobs_per_s"]
    hit = tot["cache_hit_rate"]
    print(
        f"jobs {done}/{jobs_total if jobs_total is not None else '?'}"
        f"{frac}  "
        f"{'%.2f' % rate if rate is not None else '-'} jobs/s  "
        f"eta {_fmt_eta(tot['eta_s'])}  "
        f"cache hit-rate "
        f"{'%.0f%%' % (100 * hit) if hit is not None else '-'}"
    )
    slo = snap.get("slo")
    if slo:
        comp = slo.get("compliance")
        burn = slo.get("burn_rate")
        print(
            f"slo {slo['objective_ms']:g}ms@"
            f"{100 * slo['target']:g}%  "
            f"requests {slo['requests']}  "
            f"compliance "
            f"{'%.2f%%' % (100 * comp) if comp is not None else '-'}  "
            f"burn rate "
            f"{'%.2f' % burn if burn is not None else '-'}"
            + (
                "  ** BUDGET BURNING **"
                if burn is not None and burn > 1.0
                else ""
            )
        )
    if snap["workers"]:
        print_table(
            f"workers ({tot['ok']} ok, {tot['done']} done, "
            f"{tot['stalled']} stalled, {tot['dead']} dead)",
            ["wid", "verdict", "pid", "jobs", "current job", "rss",
             "beat age s"],
            [
                [
                    w["worker_id"], w["verdict"], w["pid"],
                    f"{w['jobs_done']}/{w['jobs_total']}",
                    w["current_job"] or "-",
                    _fmt_bytes(w["rss_bytes"]),
                    f"{w['age_s']:.1f}",
                ]
                for w in snap["workers"]
            ],
        )
    else:
        print("no heartbeats yet")
    for rec in snap.get("log_tail", []):
        extras = " ".join(
            f"{k}={v}"
            for k, v in rec.items()
            if k not in ("ts", "level", "event", "run", "pid")
        )
        print(f"  [{rec.get('level', '?')}] {rec.get('event')} {extras}")


def _cmd_watch(args) -> int:
    """Tail a run directory's heartbeats + log; render live status."""
    import json as _json
    import time as _time

    if not os.path.isdir(args.run_dir):
        print(f"watch: no run directory at {args.run_dir}")
        return 1
    while True:
        snap = live.watch_snapshot(
            args.run_dir, stall_after_s=args.stall_after
        )
        if args.as_json:
            print(_json.dumps(snap, sort_keys=True))
        else:
            if not args.once and sys.stdout.isatty():
                print("\x1b[2J\x1b[H", end="")
            _print_watch(snap)
        if args.once:
            return 0
        man = snap.get("manifest") or {}
        terminal = {"done", "failed", "dead"}
        if man.get("state") == "done" or (
            snap["workers"]
            and all(
                w["verdict"] in terminal for w in snap["workers"]
            )
        ):
            return 0
        _time.sleep(args.interval)


def _cmd_bench_diff(args) -> int:
    """Compare two bench documents; exit 1 on perf regressions."""
    from repro.bench.trajectory import bench_diff, format_diff_rows

    diff = bench_diff(args.old, args.new, threshold=args.threshold)
    pct = diff["threshold"] * 100
    if diff["rows"]:
        print_table(
            f"bench timings: {diff['old_label']} -> "
            f"{diff['new_label']} (threshold {pct:.0f}%)",
            ["table", "old s", "new s", "delta", "verdict"],
            format_diff_rows(diff["rows"]),
        )
    else:
        print("bench-diff: no bench timings in common")
    if diff["gate_rows"]:
        print_table(
            f"performance-gate ratios (drop > {pct:.0f}% regresses)",
            ["gate", "old ratio", "new ratio", "delta", "verdict"],
            format_diff_rows(diff["gate_rows"]),
        )
    for key, label in (("only_old", "removed"), ("only_new", "new")):
        if diff[key]:
            print(f"{label} bench(es): {', '.join(diff[key])}")
    bad = diff["regressions"] + diff["gate_regressions"]
    if bad:
        print(
            f"bench-diff: {len(bad)} regression(s) past "
            f"{pct:.0f}%: {', '.join(bad)}"
        )
        return 1
    print("bench-diff: OK (no regressions past threshold)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multilayer VLSI layout for interconnection networks "
        "(Yeh, Varvarigos & Parhami, ICPP 2000).",
    )
    # Observability flags shared by every subcommand.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--trace", action="store_true",
        help="collect spans and print the span tree after the command",
    )
    common.add_argument(
        "--report", metavar="FILE",
        help="write a machine-readable JSON run report to FILE",
    )
    common.add_argument(
        "--profile", metavar="FILE",
        help="run the command under cProfile and dump pstats to FILE",
    )
    common.add_argument(
        "--trace-out", metavar="FILE",
        help="write a Chrome trace-event JSON (open in ui.perfetto.dev "
        "or about:tracing; parallel sweeps get one row per worker)",
    )
    common.add_argument(
        "--events-out", metavar="FILE",
        help="write a line-delimited JSON event log (spans + metric "
        "samples) for grep/jq",
    )
    common.add_argument(
        "--log-out", metavar="FILE",
        help="append structured JSONL log records to FILE (level via "
        "REPRO_LOG_LEVEL: debug/info/warning/error, default info)",
    )
    common.add_argument(
        "--metrics-out", metavar="FILE",
        help="write counters/gauges/histograms in Prometheus text "
        "exposition format (refreshed live during parallel sweeps)",
    )

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    sub = parser.add_subparsers(dest="command", required=True)

    p = add_parser("layout", help="lay out one network")
    p.add_argument("network", help="family:args, e.g. hypercube:8 or kary:4,3")
    p.add_argument("--layers", "-L", type=int, default=2)
    p.add_argument("--validate", action="store_true")
    p.add_argument("--svg", metavar="FILE")
    p.add_argument("--json", metavar="FILE")
    p.set_defaults(fn=_cmd_layout)

    p = add_parser("zoo", help="lay out the network zoo")
    p.add_argument("--layers", "-L", type=int, default=4)
    p.set_defaults(fn=_cmd_zoo)

    p = add_parser(
        "sweep",
        help="run a declarative sweep with workers and a layout cache",
    )
    p.add_argument(
        "--networks", nargs="*", metavar="SPEC",
        help="family:args specs to sweep (default: the standard "
        "family sweep)",
    )
    p.add_argument(
        "--spec-file", metavar="FILE",
        help="load the sweep spec from a JSON file instead",
    )
    p.add_argument("--layers", "-L", type=int, nargs="*", default=[2, 4],
                   help="layer budgets to sweep (default: 2 4)")
    p.add_argument("--scheme", default="auto", choices=list(SCHEMES),
                   help="layout scheme for every job (default: auto)")
    p.add_argument("--workers", "-j", type=int, default=1,
                   help="worker processes (default: 1)")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="content-addressed layout cache directory")
    p.add_argument("--json", metavar="FILE",
                   help="write the full sweep result as JSON to FILE")
    p.add_argument("--no-validate", dest="validate", action="store_false",
                   help="skip layout validation on cache misses")
    p.add_argument("--run-dir", metavar="DIR",
                   help="keep live-telemetry artifacts (heartbeats, "
                   "log.jsonl, manifest) in DIR for `repro watch`")
    p.add_argument("--stall-after", type=float,
                   default=live.DEFAULT_STALL_AFTER_S, metavar="S",
                   help="flag a worker stalled after S seconds without "
                   "a heartbeat (default %(default)s)")
    p.set_defaults(fn=_cmd_sweep)

    p = add_parser("figures", help="print the paper's figures (ASCII)")
    p.set_defaults(fn=_cmd_figures)

    p = add_parser("predict", help="print paper closed forms")
    p.add_argument("network", help="family:args, e.g. hypercube:10")
    p.add_argument("--layers", "-L", type=int, default=2)
    p.set_defaults(fn=_cmd_predict)

    p = add_parser("simulate", help="run a traffic kernel")
    p.add_argument("network")
    p.add_argument("--layers", "-L", type=int, default=2)
    p.add_argument("--kernel", default="bit-complement",
                   help="a classic kernel (bit-complement, transpose, "
                   "random, all-to-all, hot-spot) or a workload-zoo "
                   "kind (uniform, hotspot, bursty, adversarial, ...)")
    p.add_argument("--mode", default="store_forward",
                   choices=["store_forward", "cut_through"])
    p.add_argument("--message-length", type=int, default=1)
    p.add_argument("--rate", type=float, default=0.1,
                   help="injection rate for the timed zoo kinds")
    p.add_argument("--duration", type=int, default=64,
                   help="injection window (cycles) for the timed kinds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace-file", metavar="FILE",
                   help="replay a save_trace JSONL instead of a kernel")
    p.add_argument("--saturation", type=float, nargs="+", metavar="RATE",
                   help="sweep these offered loads and report the "
                   "latency curve + saturation knee")
    p.add_argument("--json", metavar="FILE",
                   help="also write the result (or sweep) as JSON")
    p.set_defaults(fn=_cmd_simulate)

    p = add_parser("cost", help="price a layout")
    p.add_argument("network")
    p.add_argument("--layers", "-L", type=int, default=2)
    p.add_argument("--layer-sweep", type=int, nargs="*")
    p.add_argument("--defect-density", type=float, default=0.0)
    p.set_defaults(fn=_cmd_cost)

    p = add_parser("fold", help="fold a Thompson layout into L layers")
    p.add_argument("network")
    p.add_argument("--layers", "-L", type=int, default=4)
    p.add_argument("--svg", metavar="FILE")
    p.set_defaults(fn=_cmd_fold)

    p = add_parser("stack", help="3-D deck stacking for a k^3 torus")
    p.add_argument("k", type=int)
    p.add_argument("--layers", "-L", type=int, default=8)
    p.add_argument("--svg", metavar="FILE")
    p.set_defaults(fn=_cmd_stack)

    p = add_parser(
        "stats",
        help="trace the zoo pipeline and print phase timings",
    )
    p.add_argument("--layers", "-L", type=int, default=4)
    p.add_argument(
        "--mem", action="store_true",
        help="report layout memory instead: object graph vs geometry "
        "table bytes for every zoo network",
    )
    p.add_argument(
        "--cache-dir", metavar="DIR",
        help="route zoo builds through a layout cache so the cache.* "
        "counters show up in the counters table",
    )
    p.set_defaults(fn=_cmd_stats)

    from repro.check.differential import STAGES as _STAGES
    from repro.check.generate import KINDS as _KINDS

    p = add_parser("fuzz", help="differential fuzzing with oracle checks")
    p.add_argument("--budget", type=int, default=200,
                   help="number of random cases to run (default 200)")
    p.add_argument("--seed", type=int, default=0,
                   help="run seed; every case is replayable from it")
    p.add_argument("--max-nodes", type=int, default=12,
                   help="size cap for generated networks (default 12)")
    p.add_argument("--stages", nargs="*", choices=list(_STAGES),
                   help="restrict to these pipeline stages")
    p.add_argument("--kinds", nargs="*", choices=list(_KINDS),
                   help="restrict to these case generators")
    p.add_argument("--max-failures", type=int, default=None,
                   help="stop after this many failing cases")
    p.add_argument("--workers", "-j", type=int, default=1,
                   help="fan cases across worker processes (default: 1)")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="shared layout cache (read-only in workers)")
    p.add_argument("--corpus-dir", metavar="DIR",
                   help="save shrunk counterexamples into DIR")
    p.add_argument("--no-shrink", dest="shrink", action="store_false",
                   help="report failures raw, without delta-debugging")
    p.add_argument("--run-dir", metavar="DIR",
                   help="keep live-telemetry artifacts (heartbeats, "
                   "log.jsonl, manifest) in DIR for `repro watch`")
    p.set_defaults(fn=_cmd_fuzz)

    p = add_parser(
        "watch",
        help="live status console for a sweep/fuzz run directory",
    )
    p.add_argument("run_dir", help="the --run-dir of a sweep/fuzz run")
    p.add_argument("--once", action="store_true",
                   help="render one snapshot and exit")
    p.add_argument("--json", dest="as_json", action="store_true",
                   help="emit the raw status document as JSON instead "
                   "of tables")
    p.add_argument("--interval", type=float, default=1.0, metavar="S",
                   help="refresh period in seconds (default 1.0)")
    p.add_argument("--stall-after", type=float,
                   default=live.DEFAULT_STALL_AFTER_S, metavar="S",
                   help="age after which a heartbeat counts as stalled "
                   "(default %(default)s)")
    p.set_defaults(fn=_cmd_watch)

    p = add_parser(
        "serve",
        help="run the layout daemon (HTTP/JSON over the sweep engine)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8787,
                   help="listen port; 0 picks a free one (default 8787)")
    p.add_argument("--workers", "-j", type=int, default=2,
                   help="persistent build worker processes (default 2)")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="content-addressed layout cache; warm keys are "
                   "answered without touching the pool")
    p.add_argument("--quota-rate", type=float, default=0.0, metavar="R",
                   help="per-client tokens/second (X-Repro-Client "
                   "header); 0 disables quotas (default)")
    p.add_argument("--quota-burst", type=float, default=20.0, metavar="B",
                   help="per-client bucket size (default 20)")
    p.add_argument("--max-inflight", type=int, default=0, metavar="N",
                   help="global concurrent-request cap; past it the "
                   "server answers 503 (0 = unlimited)")
    p.add_argument("--request-timeout", type=float, default=120.0,
                   metavar="S",
                   help="per-build deadline before a 504 (default 120)")
    p.add_argument("--run-dir", metavar="DIR",
                   help="keep serve telemetry (worker heartbeats, "
                   "log.jsonl, manifest) in DIR for `repro watch`")
    p.add_argument("--ready-file", metavar="FILE",
                   help="write {host, port, pid} JSON once listening "
                   "(scripts poll this to learn a --port 0 binding)")
    p.add_argument("--no-validate", dest="validate", action="store_false",
                   help="skip layout validation on cache misses")
    p.add_argument("--trace-sample", type=float, default=1.0, metavar="R",
                   help="fraction of header-less requests whose span "
                   "tree is retained for /debug/trace (default 1.0; "
                   "inbound x-repro-trace flags always win)")
    p.add_argument("--slo-latency-ms", type=float, default=250.0,
                   metavar="MS",
                   help="SLO latency objective per request "
                   "(default 250)")
    p.add_argument("--slo-target", type=float, default=0.99, metavar="F",
                   help="fraction of requests that must meet the "
                   "objective (default 0.99)")
    p.add_argument("--debug-requests", type=int, default=256, metavar="N",
                   help="tail-sampled request ring size behind "
                   "/debug/requests (default 256)")
    p.set_defaults(fn=_cmd_serve)

    p = add_parser(
        "loadgen",
        help="replay a request trace against a server, report latency",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True,
                   help="port of the serve daemon under test")
    p.add_argument("--trace-file", metavar="FILE",
                   help="replay a save_trace JSONL of "
                   "[network, layers, start] rows")
    p.add_argument("--requests", "-n", type=int, default=50,
                   help="synthetic request count when no --trace-file "
                   "(default 50)")
    p.add_argument("--networks", nargs="*", metavar="SPEC",
                   help="network population for synthetic traces "
                   "(default: ring:8 hypercube:3 kary:3,2)")
    p.add_argument("--layers", "-L", type=int, nargs="*", default=[2, 4],
                   help="layer choices for synthetic traces")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--concurrency", "-c", type=int, default=1,
                   help="concurrent client connections (default 1)")
    p.add_argument("--cycle-s", type=float, default=0.0, metavar="S",
                   help="seconds per trace start-cycle; 0 = closed-loop "
                   "replay (default)")
    p.add_argument("--client", default="loadgen",
                   help="client-id prefix for the X-Repro-Client header")
    p.add_argument("--scheme", default="auto", choices=list(SCHEMES))
    p.add_argument("--timeout", type=float, default=60.0, metavar="S",
                   help="per-request timeout (default 60)")
    p.add_argument("--retries", type=int, default=3,
                   help="retry budget for 429/503 answers (default 3)")
    p.add_argument("--save-trace", metavar="FILE",
                   help="also write the replayed rows as a trace JSONL")
    p.add_argument("--slowest", type=int, default=5,
                   metavar="N",
                   help="name the N slowest requests (server request "
                   "id, trace id, source) in the report "
                   "(default %(default)s)")
    p.add_argument("--json", metavar="FILE",
                   help="write the full report document to FILE")
    p.set_defaults(fn=_cmd_loadgen)

    p = add_parser(
        "bench-diff",
        help="compare two bench/trajectory JSONs; exit 1 on regression",
    )
    p.add_argument(
        "old",
        help="baseline: trajectory .jsonl (newest record), "
        "BENCH_summary.json, or a bench-result JSON",
    )
    p.add_argument("new", help="candidate document, same formats")
    p.add_argument(
        "--threshold", type=float, default=0.15,
        help="fractional slowdown (or gate-ratio drop) that counts as "
        "a regression (default 0.15)",
    )
    p.set_defaults(fn=_cmd_bench_diff)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    trace = getattr(args, "trace", False)
    report_path = getattr(args, "report", None)
    profile_path = getattr(args, "profile", None)
    trace_out = getattr(args, "trace_out", None)
    events_out = getattr(args, "events_out", None)
    log_out = getattr(args, "log_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    observing = (
        trace or report_path or trace_out or events_out or metrics_out
        or args.command == "stats"
    )
    if observing:
        obs.reset()
        obs.enable()
    log_here = False
    if log_out:
        olog.configure(log_out)
        log_here = True
    olog.info(
        "cli.start",
        command=args.command,
        argv=list(argv) if argv is not None else sys.argv[1:],
    )
    profiler = None
    if profile_path:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        rc = args.fn(args)
        if profiler is not None:
            profiler.disable()
            profiler.dump_stats(profile_path)
            profiler = None
            print(f"profile written to {profile_path}")
        if trace:
            print("\n== span tree ==")
            print(obs.format_span_tree())
        if trace_out:
            obs.write_chrome_trace(trace_out)
            print(f"chrome trace written to {trace_out} "
                  "(open in ui.perfetto.dev)")
        if events_out:
            obs.write_jsonl(events_out)
            print(f"event log written to {events_out}")
        if metrics_out:
            obs.write_prometheus(metrics_out)
            print(f"prometheus metrics written to {metrics_out}")
        if report_path:
            layers = getattr(args, "layers", None)
            rep = obs.collect_report(
                args.command,
                spec={
                    k: v
                    for k, v in vars(args).items()
                    if k not in ("fn", "trace", "report", "profile",
                                 "trace_out", "events_out")
                    and isinstance(v, (str, int, float, bool, type(None)))
                },
                # sweep takes a *list* of layer budgets; the report
                # schema wants one int (or null).
                layers=layers if isinstance(layers, int) else None,
                command=list(argv) if argv is not None else sys.argv[1:],
            )
            rep.write(report_path)
            print(f"run report written to {report_path}")
    finally:
        if profiler is not None:
            profiler.disable()
        olog.info("cli.exit", command=args.command)
        if log_here:
            olog.close()
        if observing:
            obs.disable()
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
