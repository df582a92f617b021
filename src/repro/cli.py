"""Command-line interface: ``python -m repro <command>``.

Subcommands
-----------
``simulate``
    Pure numerical analysis of a SPICE deck (PowerRush flow); prints the
    worst drop, solver statistics and optionally a signoff verdict.
``generate``
    Emit a synthetic benchmark design (SPICE deck + ICCAD-style images)
    into a directory.
``train``
    Train an IR-Fusion pipeline on a generated suite and save the model;
    ``--jobs N`` extracts the training features on N worker processes
    (the saved weights are the same at any N).  The network trains in
    float64, the dtype of the numerical solution it corrects.
``analyze``
    Fused analysis of one or more decks with a previously trained model
    checkpoint; ``--jobs N`` fans multiple decks across the supervised
    worker pool, and ``--task-timeout``/``--retries``/``--deadline``
    bound each deck and the whole run (hung or crashing decks are
    retried, then quarantined — see ``docs/robustness.md``).
``serve``
    Start the persistent analysis-as-a-service daemon (warm model
    registry, cross-request AMG cache, bounded queue, graceful SIGTERM
    drain — see ``docs/serving.md``).  All arguments are forwarded to
    ``python -m repro.serve``; run ``repro serve --help`` for the list.

Every command prints plain text and returns a conventional exit status,
so the tool scripts cleanly:

====  =========================================================
code  meaning
====  =========================================================
0     success
1     signoff violation, or an unexpected internal error
2     bad input (unreadable file, parse error, unusable netlist)
3     solver failure after every fallback stage was exhausted
====  =========================================================

Errors print a one-line message to stderr; pass ``--debug`` for the full
traceback.  ``simulate``/``analyze`` also print a ``diagnostics:`` block
recording validation issues, repairs and solver fallbacks; ``simulate``
ends it with the AMG hierarchy it built (``amg: levels=… coarsest=…
operator_complexity=…``).

Observability: ``analyze`` and ``train`` accept ``--trace PATH`` to run
under a :mod:`repro.obs` tracer and write the JSONL span trace (validate
it with ``python -m repro.obs --validate PATH``); ``--debug`` on any
command additionally prints the span summary tree and counters.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro.obs import span as _span
from repro.obs.registry import (
    AMG_SETUP,
    ANALYZE,
    GENERATE,
    IMPORTS,
    SERVE,
    SIMULATE,
    TRAIN,
)

#: Exit codes (see module docstring).
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_BAD_INPUT = 2
EXIT_SOLVER_FAILURE = 3


def _print_diagnostics(diagnostics) -> None:
    for line in diagnostics.summary_lines():
        print(line)


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.eval.signoff import check_ir_drop, check_limit
    from repro.grid.geometry import infer_geometry
    from repro.solvers.powerrush import PowerRushSimulator

    if args.limit_mv is not None:  # refused before the deck is read
        check_limit(args.limit_mv / 1e3)
    simulator = PowerRushSimulator(
        max_iterations=args.iterations, tol=args.tol, preset=args.preset
    )
    with _span(SIMULATE) as run:
        report = simulator.simulate_file(args.deck)
    print(f"nodes={report.grid.num_nodes} wires={report.grid.num_wires} "
          f"pads={len(report.grid.pads())}")
    print(f"iterations={report.solve.iterations} "
          f"converged={report.solve.converged} "
          f"residual={report.solve.final_residual:.3e}")
    print(f"worst_drop_mV={report.worst_drop() * 1e3:.4f}")
    _print_diagnostics(report.diagnostics)
    setup = run.find(AMG_SETUP)
    if setup is not None and "levels" in setup.attrs:  # a setup-cache miss
        attrs = setup.attrs
        print(f"  amg: levels={attrs['levels']} coarsest={attrs['coarsest']} "
              f"operator_complexity={attrs['operator_complexity']:.3f}")
    if args.limit_mv is not None:
        geometry = infer_geometry(report.grid)
        verdict = check_ir_drop(
            report.drop_image(geometry), args.limit_mv / 1e3
        )
        print(verdict.summary())
        return 0 if verdict.passed else 1
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.data.dataset import golden_ir_drop
    from repro.data.iccad import save_iccad_design
    from repro.data.synthetic import generate_design, make_fake_spec, make_real_spec
    from repro.features.current import load_current_map
    from repro.features.density import pdn_density_map
    from repro.features.distance import effective_distance_map

    maker = make_fake_spec if args.kind == "fake" else make_real_spec
    design = generate_design(
        maker(args.name, seed=args.seed, pixels=args.pixels)
    )
    images = {
        "current": load_current_map(design.geometry, design.grid),
        "eff_dist": effective_distance_map(design.geometry, design.grid),
        "pdn_density": pdn_density_map(design.geometry, design.grid),
    }
    if args.golden:
        images["ir_drop"] = golden_ir_drop(design)
    save_iccad_design(args.out, design.netlist, images)
    print(f"wrote {args.kind} design {args.name!r} "
          f"({design.grid.num_nodes} nodes) to {args.out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    with _span(IMPORTS):
        from repro.core.config import FusionConfig
        from repro.core.pipeline import IRFusionPipeline
        from repro.nn.serialize import install_file
        from repro.train.trainer import TrainConfig

    config = FusionConfig(
        pixels=args.pixels,
        num_fake=args.fake,
        num_real_train=args.real,
        num_real_test=1,
        data_seed=args.seed,
        base_channels=args.channels,
        train=TrainConfig(epochs=args.epochs, batch_size=8, use_curriculum=True),
        jobs=args.jobs,
    )
    pipeline = IRFusionPipeline(config)
    history = pipeline.train()
    if history.aborted is not None:
        print(f"error: training aborted ({history.aborted}) after "
              f"{len(history.recoveries)} non-finite epoch losses; "
              f"nothing written to {args.out}", file=sys.stderr)
        return EXIT_FAILURE
    pipeline.save_model(args.out)
    train_raw, _ = pipeline.build_datasets()
    meta = {
        "in_channels": len(train_raw.channels),
        "config": {
            "pixels": config.pixels,
            "base_channels": config.base_channels,
            "depth": config.depth,
            "solver_iterations": config.solver_iterations,
        },
        "final_loss": history.final_loss,
    }
    install_file(str(args.out) + ".json", json.dumps(meta, indent=2).encode())
    print(f"trained {config.train.epochs} epochs "
          f"(final loss {history.final_loss:.4f}); saved to {args.out}")
    return 0


def _batch_error_code(error: str) -> int:
    """Map a captured per-deck error string onto the CLI exit codes."""
    kind = error.split(":", 1)[0]
    if kind == "SolverFailure":
        return EXIT_SOLVER_FAILURE
    if kind in (
        "SpiceParseError",
        "NetlistValidationError",
        "FileNotFoundError",
        "IsADirectoryError",
        "PermissionError",
        "KeyError",
        "ValueError",
    ):
        return EXIT_BAD_INPUT
    return EXIT_FAILURE


def _cmd_analyze(args: argparse.Namespace) -> int:
    with _span(IMPORTS):
        from repro.core.batch import check_controls
        from repro.core.pipeline import IRFusionPipeline
        from repro.eval.signoff import check_limit

    # Refused before any deck runs, with one deck or many.
    check_controls(args.task_timeout, args.retries, args.deadline)
    if args.limit_mv is not None:
        check_limit(args.limit_mv / 1e3)
    if args.save_map and len(args.deck) > 1:
        raise ValueError("--save-map needs a single deck")
    pipeline = IRFusionPipeline.from_model_file(
        args.model, jobs=args.jobs
    )
    config = pipeline.config

    if len(args.deck) == 1:
        if args.deadline is not None:
            # Same cooperative budget the batch path hands each worker:
            # the solver cascade short-circuits stages that cannot
            # finish before it expires.
            from repro.obs import deadline_scope

            with deadline_scope(args.deadline):
                result = pipeline.analyze_file(args.deck[0])
        else:
            result = pipeline.analyze_file(args.deck[0])
        print(
            f"worst_predicted_drop_mV={result.worst_predicted_drop() * 1e3:.4f}"
        )
        print(f"solver_ms={result.solver_seconds * 1e3:.1f} "
              f"features_ms={result.feature_seconds * 1e3:.1f} "
              f"model_ms={result.model_seconds * 1e3:.1f}")
        _print_diagnostics(result.diagnostics)
        if args.save_map:
            np.savetxt(args.save_map, result.predicted_drop, delimiter=",")
            print(f"wrote drop map to {args.save_map}")
        if args.limit_mv is not None:
            verdict = result.signoff(args.limit_mv / 1e3)
            print(verdict.summary())
            return 0 if verdict.passed else 1
        return 0

    # Batch mode: fan the decks across worker processes, keep going past
    # per-deck failures, and exit with the most severe per-deck code.
    from repro.core.batch import BatchAnalyzer

    analyzer = BatchAnalyzer(
        pipeline,
        jobs=config.jobs,
        task_timeout=args.task_timeout,
        retries=args.retries,
        deadline=args.deadline,
    )
    report = analyzer.analyze_files(args.deck)
    status = EXIT_OK
    for item in report.items:
        if not item.ok:
            print(f"{item.name}: error: {item.error}", file=sys.stderr)
            status = max(status, _batch_error_code(item.error))
            continue
        result = item.result
        line = (
            f"{item.name}: "
            f"worst_predicted_drop_mV={result.worst_predicted_drop() * 1e3:.4f} "
            f"total_ms={result.total_seconds * 1e3:.1f}"
        )
        if args.limit_mv is not None:
            verdict = result.signoff(args.limit_mv / 1e3)
            line += f" signoff={'pass' if verdict.passed else 'FAIL'}"
            if not verdict.passed:
                status = max(status, EXIT_FAILURE)
        print(line)
    for line in report.summary_lines():
        print(line)
    return status


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported lazily: the serve stack pulls the whole pipeline chain,
    # which `repro --help` and the other subcommands must not pay for.
    from repro.serve.__main__ import main as serve_main

    return serve_main(args.serve_args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="IR-Fusion static IR-drop analysis toolkit",
    )
    parser.add_argument("--debug", action="store_true",
                        help="print full tracebacks instead of one-line errors")
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="numerical (PowerRush) analysis")
    simulate.add_argument("deck", help="SPICE deck path")
    simulate.add_argument("--iterations", type=int, default=1000)
    simulate.add_argument("--tol", type=float, default=1e-10)
    simulate.add_argument("--preset", choices=("quality", "fast"),
                          default="quality")
    simulate.add_argument("--limit-mv", type=float, default=None,
                          help="signoff budget in millivolts")
    simulate.set_defaults(func=_cmd_simulate, root_span=SIMULATE)

    generate = sub.add_parser("generate", help="emit a synthetic design")
    generate.add_argument("out", help="output directory")
    generate.add_argument("--kind", choices=("fake", "real"), default="fake")
    generate.add_argument("--name", default="design")
    generate.add_argument("--pixels", type=int, default=32)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--golden", action="store_true",
                          help="include the golden IR-drop image")
    generate.set_defaults(func=_cmd_generate, root_span=GENERATE)

    train = sub.add_parser("train", help="train and checkpoint IR-Fusion")
    train.add_argument("out", help="model checkpoint path (.npz)")
    train.add_argument("--pixels", type=int, default=32)
    train.add_argument("--fake", type=int, default=8)
    train.add_argument("--real", type=int, default=3)
    train.add_argument("--epochs", type=int, default=12)
    train.add_argument("--channels", type=int, default=6)
    train.add_argument("--seed", type=int, default=7)
    train.add_argument("--jobs", type=int, default=1,
                       help="worker processes for training-set feature "
                            "extraction (the model is the same at any N)")
    train.add_argument("--trace", default=None, metavar="PATH",
                       help="write a JSONL span trace of the run")
    train.set_defaults(func=_cmd_train, root_span=TRAIN)

    analyze = sub.add_parser("analyze", help="fused analysis with a checkpoint")
    analyze.add_argument("model", help="checkpoint path from 'train'")
    analyze.add_argument("deck", nargs="+", help="SPICE deck path(s)")
    analyze.add_argument("--jobs", type=int, default=1,
                         help="worker processes when analysing several decks")
    analyze.add_argument("--limit-mv", type=float, default=None)
    analyze.add_argument("--save-map", default=None,
                         help="write the predicted map as CSV")
    analyze.add_argument("--task-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="per-deck budget in batch mode with --jobs "
                              "above 1: a hung deck is killed, retried, "
                              "then quarantined")
    analyze.add_argument("--retries", type=int, default=2, metavar="N",
                         help="extra attempts per deck after a worker "
                              "crash, timeout or transient failure, with "
                              "--jobs above 1 (default: 2)")
    analyze.add_argument("--deadline", type=float, default=None,
                         metavar="SECONDS",
                         help="whole-run budget: batch items still "
                              "unfinished are quarantined; a single deck "
                              "short-circuits solver fallbacks that "
                              "cannot finish in time")
    analyze.add_argument("--trace", default=None, metavar="PATH",
                         help="write a JSONL span trace of the run")
    analyze.set_defaults(func=_cmd_analyze, root_span=ANALYZE)

    serve = sub.add_parser(
        "serve",
        help="start the analysis daemon (run `repro serve --help` for flags)",
        add_help=False,
    )
    serve.add_argument("serve_args", nargs=argparse.REMAINDER,
                       help="arguments forwarded to python -m repro.serve")
    serve.set_defaults(func=_cmd_serve, root_span=SERVE)
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    """Run the selected command, under a tracer when asked to.

    ``--trace PATH`` (analyze/train) and ``--debug`` (any command) both
    install a :mod:`repro.obs` tracer for the command's whole extent, so
    every library span — parse, validate, amg_setup, pcg, features,
    inference, per-epoch train — lands in one tree.  The trace file is
    written (and the summary printed) only when the command completes;
    an exception propagates to :func:`main`'s error mapping untouched.
    """
    trace_path = getattr(args, "trace", None)
    if trace_path is None and not args.debug:
        return args.func(args)
    from repro.obs import metrics_snapshot, summary_lines, trace, write_trace

    with trace(args.root_span) as tracer:
        status = args.func(args)
    metrics = metrics_snapshot()
    if trace_path is not None:
        write_trace(trace_path, tracer.root, metrics)
        print(f"wrote trace to {trace_path}")
    if args.debug:
        for line in summary_lines(tracer.root, metrics):
            print(line)
    return status


def _serve_split(argv: list[str]) -> int | None:
    """Index just past the ``serve`` subcommand token, or ``None``.

    Scans over the global flags only, so a deck that happens to be
    named ``serve`` in another subcommand's positionals never matches.
    """
    for i, token in enumerate(argv):
        if token == "serve":
            return i + 1
        if not token.startswith("-"):
            return None  # first positional is a different subcommand
    return None


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse.REMAINDER refuses a first token that looks like an option
    # (bpo-17050), which is exactly what `repro serve --model-dir ...`
    # sends — split the forwarded flags off before the parser sees them.
    split = _serve_split(argv)
    if split is not None:
        args = build_parser().parse_args(argv[:split])
        args.serve_args = argv[split:]
    else:
        args = build_parser().parse_args(argv)
    # Imported here so `repro --help` stays instant.
    from repro.solvers.guard import SolverFailure
    from repro.spice.parser import SpiceParseError
    from repro.spice.validate import NetlistValidationError

    try:
        return _dispatch(args)
    except SolverFailure as exc:
        if args.debug:
            raise
        print(f"error: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE
    except (
        SpiceParseError,
        NetlistValidationError,
        FileNotFoundError,
        IsADirectoryError,
        PermissionError,
        json.JSONDecodeError,
        KeyError,
        ValueError,
    ) as exc:
        if args.debug:
            raise
        print(f"error: bad input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as exc:  # noqa: BLE001 — last-resort: no raw tracebacks
        if args.debug:
            raise
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
