"""Command-line interface: ``python -m repro <command>``.

Subcommands map one-to-one onto the library's entry points:

* ``litmus``        — run the litmus corpus (classic / paper / all).
* ``show``          — print a litmus program's IR listing.
* ``explain``       — find and render a relaxed execution reaching an
  outcome (``python -m repro explain LB t0_r0=1 t1_r1=1``).
* ``verify-sekvm``  — the Section 5 verification (optionally all 16
  versions and/or the seeded-bug suite).
* ``verify-locks``  — the synchronization-primitive sweep.
* ``table1`` / ``table3`` / ``figure8`` / ``figure9`` — regenerate the
  evaluation artifacts.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional, Sequence

from repro import config


def _add_parallel_flags(parser: argparse.ArgumentParser) -> None:
    """``--jobs N`` / ``--no-cache`` for the exploration-heavy commands.

    ``--jobs`` defaults to -1, which :func:`repro.parallel.resolve_jobs`
    expands to ``os.cpu_count()``; ``--jobs 1`` forces serial.
    """
    parser.add_argument(
        "--jobs", "-j", type=int, default=-1, metavar="N",
        help="worker processes (default: all CPUs; 1 = serial)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore and do not write the persistent exploration cache",
    )
    parser.add_argument(
        "--no-memo", action="store_true",
        help="disable certification memoization (sets REPRO_CERT_MEMO=0; "
        "results are identical, only slower — a debugging/benchmark knob)",
    )
    parser.add_argument(
        "--no-fuse", action="store_true",
        help="run every wDRF condition as its own exploration pass "
        "(sets REPRO_FUSE=0; reports are identical, only slower — a "
        "debugging/benchmark knob)",
    )
    parser.add_argument(
        "--backend", choices=config.BACKENDS, default=None,
        help="verification backend (sets REPRO_BACKEND): 'explore' "
        "enumerates interleavings, 'bmc' compiles encodable queries to "
        "SAT (default: REPRO_BACKEND or 'explore')",
    )
    parser.add_argument(
        "--model", choices=config.MODEL_NAMES, default=None,
        help="target architecture for relaxed explorations (sets "
        "REPRO_MODEL): 'arm' is the Promising Arm model, 'tso' the "
        "store-buffer TSO model, 'sc' sequential consistency "
        "(default: REPRO_MODEL or 'arm'; see docs/PORTABILITY.md)",
    )


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """``--trace FILE`` / ``--metrics-out FILE`` observability flags.

    ``--trace`` installs a recording sink for the whole command and
    writes the structured event trace as JSON; ``--metrics-out`` enables
    the metrics registry (aggregated across worker processes) and writes
    its snapshot.  Both default to off, which costs nothing (see
    ``docs/OBSERVABILITY.md``).
    """
    parser.add_argument(
        "--trace", metavar="FILE",
        help="record a structured event trace of this command to FILE "
        "(JSON; spans + promise/barrier/TLB/POR/cache events)",
    )
    parser.add_argument(
        "--metrics-out", metavar="FILE",
        help="collect engine metrics (counters/gauges/histograms, "
        "aggregated across --jobs workers) and write them to FILE as JSON",
    )


def _knob_overrides(args: argparse.Namespace) -> Dict[str, object]:
    """The :mod:`repro.config` knobs ``--no-memo`` / ``--no-fuse`` /
    ``--no-cache`` / ``--backend`` / ``--model`` set for one command."""
    return {
        "cert_memo": False if getattr(args, "no_memo", False) else None,
        "fuse": False if getattr(args, "no_fuse", False) else None,
        "explore_cache": False if getattr(args, "no_cache", False) else None,
        "backend": getattr(args, "backend", None),
        "model": getattr(args, "model", None),
    }


def _cmd_litmus(args: argparse.Namespace) -> int:
    from repro.litmus import (
        classic_corpus,
        corpus_report,
        full_corpus,
        paper_examples,
        run_corpus,
    )

    corpus = {
        "classic": classic_corpus,
        "paper": paper_examples,
        "all": full_corpus,
    }[args.corpus]()
    outcomes = run_corpus(corpus, jobs=args.jobs, cache=not args.no_cache,
                          model=args.model)
    print(corpus_report(outcomes))
    return 0 if all(o.passed for o in outcomes) else 1


def _find_test(name: str):
    from repro.litmus import full_corpus

    for test in full_corpus():
        if test.name.lower() == name.lower():
            return test
    matches = [t for t in full_corpus() if name.lower() in t.name.lower()]
    if len(matches) == 1:
        return matches[0]
    available = ", ".join(t.name for t in full_corpus())
    raise SystemExit(f"unknown litmus test {name!r}; available: {available}")


def _cmd_show(args: argparse.Namespace) -> int:
    from repro.ir import format_program

    test = _find_test(args.name)
    print(format_program(test.program))
    condition = ", ".join(f"{k}={v}" for k, v in test.condition.items())
    print(f"postcondition: {condition}")
    tso = test.expected_tso
    print(
        f"allowed on SC: {test.allowed_sc}; on TSO: "
        f"{'unpinned' if tso is None else tso}; "
        f"on relaxed Arm: {test.allowed_rm}"
    )
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.memory import explain_outcome
    from repro.memory.semantics import ModelConfig

    test = _find_test(args.name)
    constraints = {}
    for item in args.constraints or []:
        key, _, value = item.partition("=")
        constraints[key] = int(value, 0)
    if not constraints:
        constraints = dict(test.condition)
    cfg = ModelConfig(relaxed=not args.sc,
                      max_promises_per_thread=test.max_promises)
    trace = explain_outcome(test.program, cfg, **constraints)
    if trace is None:
        model = "SC" if args.sc else "Promising Arm"
        print(f"outcome unreachable on the {model} model")
        return 1
    print(trace.render())
    return 0


def _cmd_verify_sekvm(args: argparse.Namespace) -> int:
    from repro.sekvm import verify_all_versions, verify_sekvm

    if args.all_versions:
        outcomes = verify_all_versions(include_buggy=args.buggy,
                                       jobs=args.jobs)
    else:
        outcomes = [verify_sekvm(include_buggy=args.buggy, jobs=args.jobs)]
    ok = True
    for outcome in outcomes:
        print(outcome.describe())
        ok &= outcome.all_as_expected
    return 0 if ok else 1


def _cmd_verify_locks(args: argparse.Namespace) -> int:
    from repro.sync import verify_all

    ok = True
    for result in verify_all(n_cpus=args.cpus):
        print(result.describe())
        ok &= result.as_expected
    return 0 if ok else 1


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.report import format_table1, loc_table

    print(format_table1(loc_table()))
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    from repro.perf import format_table3, run_table3

    print(format_table3(run_table3(linux=args.linux)))
    return 0


def _cmd_figure8(args: argparse.Namespace) -> int:
    from repro.perf import format_figure8, run_figure8
    from repro.report import grouped_bars

    results = run_figure8()
    print(format_figure8(results))
    if args.chart:
        groups = {}
        for r in results:
            if r.linux != "4.18":
                continue
            groups.setdefault(f"{r.workload}/{r.machine}", {})[
                r.hypervisor
            ] = r.normalized_perf
        print()
        print(grouped_bars(groups, ("KVM", "SeKVM"),
                           title="Figure 8 (normalized to native, 4.18)"))
    return 0


def _cmd_figure9(args: argparse.Namespace) -> int:
    from repro.perf import VM_COUNTS, format_figure9, run_figure9
    from repro.report import series_chart

    points = run_figure9()
    print(format_figure9(points))
    if args.chart:
        table = {
            (p.workload, p.hypervisor, p.vms): p.normalized_perf
            for p in points
        }
        for workload in sorted({p.workload for p in points}):
            series = {
                hyp: [table[(workload, hyp, n)] for n in VM_COUNTS]
                for hyp in ("KVM", "SeKVM")
            }
            print()
            print(series_chart(list(VM_COUNTS), series,
                               title=f"Figure 9: {workload} (m400)"))
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.conformance import (
        PROFILES,
        FuzzConfig,
        fuzz_parallel,
        run_fuzz,
    )

    profiles = tuple(args.profiles.split(",")) if args.profiles else PROFILES
    unknown = [p for p in profiles if p not in PROFILES]
    if unknown:
        print(f"unknown profile(s): {', '.join(unknown)}; "
              f"available: {', '.join(PROFILES)}")
        return 2
    budget = args.budget
    if budget is None and args.minutes is None:
        budget = 50
    config = FuzzConfig(
        seed=args.seed,
        budget=budget,
        minutes=args.minutes,
        profiles=profiles,
        corpus_dir=args.corpus,
        shrink=not args.no_shrink,
    )
    if args.minutes is None and args.jobs != 1:
        report = fuzz_parallel(config, jobs=args.jobs)
    else:
        report = run_fuzz(config)
    print(report.describe())
    if report.findings and args.corpus:
        print(f"counterexamples written to {args.corpus}")
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the verification job server until interrupted."""
    import asyncio

    from repro.serve.server import ServeConfig, run_server

    overrides = {
        name: value
        for name, value in (
            ("host", args.host),
            ("port", args.port),
            ("workers", args.workers),
            ("queue_limit", args.queue_limit),
        )
        if value is not None
    }
    try:
        asyncio.run(run_server(ServeConfig.from_env(**overrides)))
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or clear the persistent caches (engine + serve layers)."""
    import json

    from repro.memory.cache import clear_disk_cache, disk_stats, lookup_stats

    if args.action == "clear":
        removed = clear_disk_cache()
        print(f"removed {removed} cache file(s) from {disk_stats()['dir']}")
        return 0
    stats = disk_stats()
    lookups = lookup_stats()
    if args.json:
        print(json.dumps({"disk": stats, "lookups": lookups},
                         indent=2, sort_keys=True))
        return 0
    print(f"cache dir: {stats['dir']}")
    for layer in ("engine", "serve"):
        info = stats[layer]
        line = (f"  {layer:<8} {info['entries']} entries, "
                f"{info['bytes']:,} bytes")
        if info["stale_tmp"]:
            line += f", {info['stale_tmp']} stale tmp file(s)"
        print(line)
    layers = sorted(set(lookups["hits"]) | set(lookups["misses"]))
    if layers:
        print("lookups (this process):")
        for layer in layers:
            hits = lookups["hits"].get(layer, 0)
            misses = lookups["misses"].get(layer, 0)
            total = hits + misses
            rate = hits / total if total else 0.0
            print(f"  {layer:<8} {hits} hit(s), {misses} miss(es) "
                  f"({rate:.0%} hit rate)")
    else:
        print("lookups (this process): none recorded")
    return 0


def _find_sekvm_case(name: str):
    """Resolve a KCore primitive case by (fuzzy) name, like litmus tests."""
    from repro.sekvm.ir_programs import kcore_buggy_cases, kcore_verified_cases

    cases = list(kcore_verified_cases()) + list(kcore_buggy_cases())
    for case in cases:
        if case.name.lower() == name.lower():
            return case
    matches = [c for c in cases if name.lower() in c.name.lower()]
    if len(matches) == 1:
        return matches[0]
    available = ", ".join(c.name for c in cases)
    raise SystemExit(f"unknown SeKVM case {name!r}; available: {available}")


def _emit_explanation(args, trace, program, notes) -> None:
    """Print (or write) the rendered/JSON explanation per the flags."""
    import json

    from repro.obs.render import explanation_json, render_explanation

    if args.json:
        text = json.dumps(
            explanation_json(trace, program, notes=notes),
            indent=2, sort_keys=True,
        )
    else:
        text = render_explanation(trace, program, notes=notes)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)


def _cmd_trace(args: argparse.Namespace) -> int:
    """Explain a counterexample: corpus witness or failing wDRF check."""
    from repro.obs.render import explain_conformance_entry, explain_drf_violation

    if args.wdrf:
        case = _find_sekvm_case(args.wdrf)
        spec = case.spec
        trace = explain_drf_violation(
            spec.program, spec.shared_locs, spec.initial_ownership,
            **spec.overrides(),
        )
        if trace is None:
            print(
                f"{case.name}: no push/pull panic is reachable — the "
                f"program satisfies the ownership discipline"
            )
            return 0 if case.should_verify else 1
        notes = [
            f"subject: {case.name} (paper ref: {case.paper_ref or 'n/a'})",
            "witness: an execution panicking under the push/pull "
            "ownership discipline (DRF-Kernel / No-Barrier-Misuse failure)",
        ]
        _emit_explanation(args, trace, spec.program, notes)
        return 0
    if not args.witness:
        print("trace: provide a counterexample witness file or --wdrf NAME")
        return 2
    from repro.conformance.corpus import load_entry

    entry = load_entry(args.witness)
    trace, program, notes = explain_conformance_entry(entry)
    if trace is None:
        print(
            f"{args.witness}: no execution illustrating the disagreement "
            f"was found within the exploration budget"
        )
        for note in notes:
            print(f"  {note}")
        return 1
    _emit_explanation(args, trace, program, notes)
    return 0


def _cmd_repair(args: argparse.Namespace) -> int:
    from repro.vrm.repair import repair_barriers

    test = _find_test(args.name)
    result = repair_barriers(test.program, max_fixes=args.max_fixes)
    print(result.describe(test.program))
    return 0


def _cmd_portability(args: argparse.Namespace) -> int:
    """Re-verify the corpus under SC, TSO, and Arm; print the matrix."""
    from repro.vrm.portability import build_matrix, render_matrix

    matrix = build_matrix(cache=not args.no_cache)
    print(render_matrix(matrix))
    if args.output:
        import json

        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(matrix, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}")
    ok = all(
        row["sc_subset_tso"] and row["tso_subset_arm"]
        for section in ("litmus", "sekvm")
        for row in matrix[section]
    )
    return 0 if ok else 1


def _cmd_contention(args: argparse.Namespace) -> int:
    from repro.perf.contention import format_contention, run_contention_study

    print(format_contention(run_contention_study()))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Regenerate the complete reproduction report in one shot."""
    from repro.litmus import corpus_report, run_corpus
    from repro.perf import (
        format_figure8,
        format_figure9,
        format_table3,
        run_figure8,
        run_figure9,
        run_table3,
    )
    from repro.perf.contention import format_contention, run_contention_study
    from repro.report import format_table1, loc_table
    from repro.sekvm import verify_sekvm
    from repro.sync import verify_all

    banner = "=" * 72
    print(banner)
    print("VRM reproduction — complete report")
    print(banner)

    print("\n[1/7] Table 1 — verification effort breakdown")
    print(format_table1(loc_table()))

    print("\n[2/7] Table 3 — microbenchmarks (cycles)")
    print(format_table3(run_table3()))

    print("\n[3/7] Figure 8 — single-VM application performance")
    print(format_figure8(run_figure8()))

    print("\n[4/7] Figure 9 — multi-VM scalability")
    print(format_figure9(run_figure9()))

    print("\n[5/7] Litmus corpus (Examples 1-7 + classics)")
    print(corpus_report(run_corpus()))

    print("\n[6/7] SeKVM wDRF verification (original configuration)")
    print(verify_sekvm(include_buggy=True).describe())

    print("\n[7/7] Synchronization-primitive sweep + lock contention")
    for result in verify_all():
        print("  " + result.describe())
    print(format_contention(run_contention_study()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "VRM reproduction: verify concurrent kernel code on relaxed "
            "memory and regenerate the paper's evaluation"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("litmus", help="run the litmus corpus")
    p.add_argument("--corpus", choices=("classic", "paper", "all"),
                   default="all")
    _add_parallel_flags(p)
    _add_obs_flags(p)
    p.set_defaults(fn=_cmd_litmus)

    p = sub.add_parser("show", help="print a litmus program listing")
    p.add_argument("name")
    p.set_defaults(fn=_cmd_show)

    p = sub.add_parser("explain", help="render an execution reaching an outcome")
    p.add_argument("name")
    p.add_argument("constraints", nargs="*",
                   help="t<tid>_<reg>=<value> (default: the test's condition)")
    p.add_argument("--sc", action="store_true",
                   help="search the SC model instead of Promising Arm")
    _add_obs_flags(p)
    p.set_defaults(fn=_cmd_explain)

    p = sub.add_parser("verify-sekvm", help="run the wDRF verification of SeKVM")
    p.add_argument("--all-versions", action="store_true")
    p.add_argument("--buggy", action="store_true",
                   help="include the seeded-bug variants")
    _add_parallel_flags(p)
    _add_obs_flags(p)
    p.set_defaults(fn=_cmd_verify_sekvm)

    p = sub.add_parser("verify-locks", help="verify synchronization primitives")
    p.add_argument("--cpus", type=int, default=2)
    p.set_defaults(fn=_cmd_verify_locks)

    p = sub.add_parser("table1", help="regenerate table1")
    p.set_defaults(fn=_cmd_table1)

    for name, fn in (
        ("figure8", _cmd_figure8),
        ("figure9", _cmd_figure9),
    ):
        p = sub.add_parser(name, help=f"regenerate {name}")
        p.add_argument("--chart", action="store_true",
                       help="also render an ASCII chart")
        p.set_defaults(fn=fn)

    p = sub.add_parser("table3", help="regenerate table3")
    p.add_argument("--linux", default="4.18")
    p.set_defaults(fn=_cmd_table3)

    p = sub.add_parser(
        "fuzz",
        help="differential conformance fuzzing across models and engine "
        "configurations",
    )
    p.add_argument("--seed", "--start", dest="seed", type=int, default=0,
                   help="root seed; program i derives its own RNG stream "
                   "from (seed, i)")
    p.add_argument("--budget", "--count", dest="budget", type=int,
                   default=None, metavar="N",
                   help="number of programs to generate (default 50 "
                   "unless --minutes is given)")
    p.add_argument("--minutes", type=float, default=None,
                   help="wall-clock budget; overrides the default program "
                   "budget")
    p.add_argument("--corpus", metavar="DIR",
                   help="persist shrunk counterexamples to this directory")
    p.add_argument("--profiles", metavar="P1,P2,...",
                   help="generation profiles "
                        "(default: plain,fenced,mmu,sync,vm)")
    p.add_argument("--no-shrink", action="store_true",
                   help="record raw counterexamples without delta-debugging")
    _add_parallel_flags(p)
    _add_obs_flags(p)
    p.set_defaults(fn=_cmd_fuzz)

    p = sub.add_parser(
        "trace",
        help="explain a counterexample step by step (per-thread views, "
        "promises, certification outcomes, coherence order)",
    )
    p.add_argument("witness", nargs="?",
                   help="a conformance-corpus counterexample JSON file")
    p.add_argument("--wdrf", metavar="NAME",
                   help="explain the DRF failure of a SeKVM case instead "
                   "(e.g. 'gen_vmid[no-barriers]'; fuzzy names accepted)")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable explanation")
    p.add_argument("--out", metavar="FILE",
                   help="write the explanation to FILE instead of stdout")
    p.add_argument("--no-cache", action="store_true",
                   help="ignore and do not write the persistent "
                   "exploration cache")
    p.set_defaults(fn=_cmd_trace, no_memo=False, no_fuse=False)

    p = sub.add_parser(
        "serve",
        help="run the verification job server (content-addressed dedup, "
        "persistent workers, SSE progress streams)",
    )
    p.add_argument("--host", default=None,
                   help="bind address (default: REPRO_SERVE_HOST or "
                   "127.0.0.1)")
    p.add_argument("--port", type=int, default=None,
                   help="bind port; 0 picks an ephemeral port "
                   "(default: REPRO_SERVE_PORT or 8044)")
    p.add_argument("--workers", type=int, default=None,
                   help="persistent pre-forked workers; 0 runs jobs "
                   "inline on a server thread (default: "
                   "REPRO_SERVE_WORKERS or 1)")
    p.add_argument("--queue-limit", type=int, default=None,
                   help="bounded cold-job queue; on overflow the oldest "
                   "queued job is shed with a typed 429 (default: "
                   "REPRO_SERVE_QUEUE or 64)")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "cache",
        help="inspect or clear the persistent exploration/result caches",
    )
    p.add_argument("action", choices=("stats", "clear"),
                   help="'stats' reports entry counts, bytes on disk, and "
                   "per-layer hit rates; 'clear' removes all entries")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable stats")
    p.set_defaults(fn=_cmd_cache)

    p = sub.add_parser(
        "portability",
        help="certify the SC ⊆ TSO ⊆ Arm model-portfolio containment "
        "over the litmus catalog and the SeKVM corpus",
    )
    p.add_argument("--output", "-o", metavar="FILE",
                   help="also write the verdict matrix as JSON "
                   "(the tests/corpus/portability_verdicts.json schema)")
    _add_parallel_flags(p)
    _add_obs_flags(p)
    p.set_defaults(fn=_cmd_portability)

    p = sub.add_parser("contention", help="lock-contention study")
    p.set_defaults(fn=_cmd_contention)

    p = sub.add_parser(
        "repair", help="find the minimal barrier fix for a litmus program"
    )
    p.add_argument("name")
    p.add_argument("--max-fixes", type=int, default=2)
    p.set_defaults(fn=_cmd_repair)

    p = sub.add_parser("report", help="regenerate the complete report")
    p.set_defaults(fn=_cmd_report)

    return parser


def _run_with_obs(args: argparse.Namespace) -> int:
    """Run the selected command under the requested observability.

    ``--trace FILE`` wraps the command in a recording sink and writes
    the event trace; ``--metrics-out FILE`` enables metric collection
    (workers ship their snapshots back through the pool) and writes the
    merged registry.  Without either flag the command runs on the
    zero-cost default path.
    """
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics_out", None)
    if not trace_path and not metrics_path:
        return args.fn(args)
    from repro.obs import metrics, tracer

    if metrics_path:
        metrics.enable()
        metrics.REGISTRY.reset()
    try:
        if trace_path:
            with tracer.recording(max_events=1_000_000) as rec:
                code = args.fn(args)
            rec.write(trace_path)
            print(f"wrote {len(rec.events)} trace events to {trace_path}"
                  + (f" ({rec.dropped} dropped)" if rec.dropped else ""))
        else:
            code = args.fn(args)
    finally:
        if metrics_path:
            metrics.REGISTRY.write(metrics_path)
            metrics.disable()
            print(f"wrote metrics to {metrics_path}")
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)
    try:
        with config.override(**_knob_overrides(args)):
            return _run_with_obs(args)
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed stdout: stop
        # quietly instead of tracing back, and point stdout at devnull
        # so the interpreter's exit-time flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
