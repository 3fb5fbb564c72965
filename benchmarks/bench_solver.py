"""Thin CLI wrapper over the ``solver`` benchmark campaign.

The solver-stack scenarios (single-RHS vs block CG, tile cache,
one-vs-all vs shared solve, preconditioning, mixed precision, randomized
solvers, incremental refit, out-of-core, operator selection) now live in
:mod:`repro.campaign.solver_scenarios`; the campaign definition —
problem sizes, ``--quick`` clamps, gate rules — is
:func:`repro.campaign.presets.solver_campaign`. This script keeps the
historical flags and ``BENCH_solver{,.quick}.json`` output so existing
invocations and the committed artifacts stay valid; prefer
``plssvm-bench run solver`` (resumable, gated via ``plssvm-bench
check``) for new workflows.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_solver.py [--points 4000 ...]

``--quick`` shrinks every scenario to CI-smoke size (a few seconds
total); the numbers are then only a plumbing check, not a measurement.
"""

from __future__ import annotations

import argparse
import json
import tempfile
from pathlib import Path

from repro.campaign import CampaignRunner, ResultsStore, solver_campaign

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_solver.json"


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=4000,
                        help="training points for the multiclass scenario")
    parser.add_argument("--solver-points", type=int, default=2000,
                        help="training points for the solver-level scenarios")
    parser.add_argument("--precond-points", type=int, default=4000,
                        help="training points for the preconditioning scenario")
    parser.add_argument("--rand-points", type=int, default=4000,
                        help="training points for the randomized-solver grid")
    parser.add_argument("--ooc-points", type=int, nargs="+",
                        default=[2000, 4000, 8000, 16000, 32000],
                        help="m values for the out-of-core m-scaling scenario")
    parser.add_argument("--ooc-budget-mb", type=float, default=64.0,
                        help="memory budget for the out-of-core operator")
    parser.add_argument("--ooc-shards", type=int, default=4,
                        help="row shards for the out-of-core operator")
    parser.add_argument("--features", type=int, default=16)
    parser.add_argument("--classes", type=int, default=4)
    parser.add_argument("--epsilon", type=float, default=1e-3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: tiny problem sizes, write to "
                        "BENCH_solver.quick.json unless --output is given")
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.output is None:
        args.output = (
            DEFAULT_OUTPUT.with_suffix(".quick.json") if args.quick else DEFAULT_OUTPUT
        )

    spec = solver_campaign(
        points=args.points,
        solver_points=args.solver_points,
        precond_points=args.precond_points,
        rand_points=args.rand_points,
        ooc_points=args.ooc_points,
        ooc_budget_mb=args.ooc_budget_mb,
        ooc_shards=args.ooc_shards,
        features=args.features,
        classes=args.classes,
        epsilon=args.epsilon,
        seed=args.seed,
        quick=args.quick,
    )

    def progress(cell, done, total, status):
        if status == "start":
            print(f"[{done + 1}/{total}] {cell} ...", flush=True)

    # One-shot measurement, exactly like the pre-campaign script: the
    # store is throwaway. plssvm-bench run is the resumable path.
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultsStore(Path(tmp) / f"{spec.name}.jsonl")
        run = CampaignRunner(spec, store, progress=progress).run(resume=False)
    if run.failed:
        cell, error = next(iter(run.failed.items()))
        raise RuntimeError(f"benchmark cell {cell} failed: {error}")
    report = run.report(harness="benchmarks/bench_solver.py", config=spec.config)
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    sv = report["scenarios"]["single_vs_block"]
    tc = report["scenarios"]["tile_cache"]
    mc = report["scenarios"]["multiclass"]
    pc = report["scenarios"]["preconditioning"]
    mp = report["scenarios"]["mixed_precision"]
    print(f"\nsingle vs block : {sv['single_seconds']:.2f}s -> "
          f"{sv['block_seconds']:.2f}s ({sv['speedup']:.2f}x, "
          f"{sv['single_tile_sweeps']} -> {sv['block_tile_sweeps']} tile sweeps)")
    print(f"tile cache      : {tc['uncached_seconds']:.2f}s -> "
          f"{tc['cached_seconds']:.2f}s ({tc['speedup']:.2f}x, "
          f"hit rate {tc['cache_hit_rate']:.1%})")
    print(f"multiclass      : {mc['legacy_seconds']:.2f}s -> "
          f"{mc['shared_seconds']:.2f}s ({mc['speedup']:.2f}x, "
          f"accuracy {mc['legacy_accuracy']:.3f} -> {mc['shared_accuracy']:.3f})")
    none, nys = pc["configs"]["none"], pc["configs"]["nystrom"]
    print(f"preconditioning : {none['iterations']} -> {nys['iterations']} CG "
          f"iterations ({pc['nystrom_iteration_ratio']:.2f}x, "
          f"{none['seconds']:.2f}s -> {nys['seconds']:.2f}s incl. "
          f"{nys['setup_seconds']:.2f}s rank-{nys['rank']} setup)")
    print(f"mixed precision : {mp['speedup']:.2f}x sweep speedup, "
          f"{mp['cache_bytes_ratio']:.2f}x cache bytes saved, "
          f"solution rel diff {mp['solution_rel_diff']:.2e}")
    rs = report["scenarios"]["randomized_solvers"]
    best = rs["best_within_1pct"]
    if best is None:
        print(f"randomized      : exact {rs['baseline_seconds']:.2f}s "
              f"(acc {rs['baseline_accuracy']:.3f}) -> no cell within "
              f"1% accuracy budget")
    else:
        print(f"randomized      : exact {rs['baseline_seconds']:.2f}s "
              f"(acc {rs['baseline_accuracy']:.3f}) -> best "
              f"{best['solver']} rank {best['rank']} polish "
              f"{best['polish_iters']}: {best['train_seconds']:.2f}s "
              f"({best['speedup']:.1f}x, drop {best['accuracy_drop']:.4f})")
    oc = report["scenarios"]["out_of_core"]
    largest = oc["points"][-1]
    print(f"out of core     : slowdown "
          f"{[round(p['slowdown'], 2) for p in oc['points']]} "
          f"at m={[p['points'] for p in oc['points']]} "
          f"({'within' if oc['within_1p5x'] else 'OUTSIDE'} the 1.5x bar at "
          f"m={largest['points']}: {largest['in_memory_matvecs_per_s']:.0f} "
          f"-> {largest['out_of_core_matvecs_per_s']:.0f} matvec/s)")
    print(f"[saved to {args.output}]")
    return report


if __name__ == "__main__":
    main()
