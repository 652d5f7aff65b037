"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``train``
    Generate (or load) a dataset, run ScalParC, print the tree summary,
    accuracy and the modeled machine report; optionally save the model.
``generate``
    Materialize a Quest synthetic dataset to .npz or .csv.
``scale``
    Run an (N × p) scaling sweep and print Figure-3-style tables.
``report``
    Fold the benchmark harness's result artifacts into one markdown
    document.
``publish``
    Seal a saved model (``train --save-model``) into a versioned serving
    registry; ``--activate`` makes it the current version (hot-swap).
``serve``
    Run the async batching prediction server over a registry.
``query``
    Send a prediction batch to a running server and report the answering
    model version and accuracy.

Examples
--------
::

    python -m repro train --records 50000 --function F2 --processors 16
    python -m repro generate --records 100000 --function F7 --out data.npz
    python -m repro scale --sizes 5000,10000,20000 --processors 2,4,8,16
    python -m repro train --records 20000 --save-model model.json
    python -m repro publish --registry ./models --model model.json --activate
    python -m repro serve --registry ./models --port 7071
    python -m repro query --port 7071 --records 1000 --function F2
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import import_module
from pathlib import Path

# The subcommands import what they use: ``serve`` loads the serving
# stack and nothing of the inducers, the engines, the generators or the
# analysis.
__all__ = ["main", "build_parser"]


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


class _Choices:
    """An option's choices: ``name`` of the ``repro`` submodule
    ``module`` (called, if a function), looked up only when argparse
    checks a value or lists them in help, so building the parser imports
    no engine, inducer or generator.  Pair it with a ``metavar``:
    without one, argparse lists the choices at once."""

    def __init__(self, module: str, name: str):
        self.module, self.name = module, name

    def _values(self):
        value = getattr(import_module(self.module, __package__), self.name)
        return value() if callable(value) else value

    def __contains__(self, value) -> bool:
        return value in self._values()

    def __iter__(self):
        return iter(self._values())


class _ConfigDefault:
    """An unset option's value: ``InductionConfig``'s default for
    ``field``, read only when help prints it (``%(default)s``), so the
    default lives in one place and building the parser imports no
    inducer.  ``_cmd_train`` leaves such options out of the config."""

    def __init__(self, field: str):
        self.field = field

    def __str__(self) -> str:
        from .core.config import InductionConfig

        return str(getattr(InductionConfig, self.field))


_BACKENDS = _Choices(".runtime", "available_backends")
_FUNCTIONS = _Choices(".datagen", "FUNCTION_NAMES")


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ScalParC (IPPS 1998) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a classifier")
    train.add_argument("--records", type=int, default=20_000)
    train.add_argument("--function", choices=_FUNCTIONS,
                       metavar="F1..F10", default="F2")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--noise", type=float, default=0.0,
                       help="label perturbation probability")
    train.add_argument("--processors", type=int, default=8)
    train.add_argument("--backend", choices=_BACKENDS, metavar="NAME",
                       default=None,
                       help="SPMD engine: %(choices)s (default: "
                            "REPRO_SPMD_BACKEND env var, then thread)")
    train.add_argument("--serial", action="store_true",
                       help="use the serial reference instead of ScalParC")
    train.add_argument("--trace", action="store_true",
                       help="record every rank's collective calls, "
                            "conformance-check them after the run, and "
                            "print the trace report (see also "
                            "REPRO_SPMD_TRACE=1)")
    train.add_argument("--max-depth", type=int, default=None)
    train.add_argument("--split-mode", metavar="MODE",
                       default=_ConfigDefault("split_mode"),
                       choices=_Choices(".core.config", "SPLIT_MODES"),
                       help="FindSplit strategy: exact (the paper's exscan "
                            "formulation) or voted (pre-binned count cubes "
                            "+ PV-Tree attribute voting — the "
                            "communication-efficient mode; default "
                            "%(default)s)")
    train.add_argument("--bins", type=int, metavar="N",
                       default=_ConfigDefault("n_bins"),
                       help="voted: target bins per continuous attribute "
                            "(default %(default)s)")
    train.add_argument("--vote-top-k", type=int, metavar="K",
                       default=_ConfigDefault("vote_top_k"),
                       help="voted: attributes each rank votes for per "
                            "node (default %(default)s)")
    train.add_argument("--criterion", choices=("gini", "entropy"),
                       default="gini")
    train.add_argument("--subset-splits", action="store_true",
                       help="binary subset categorical splits (footnote 1)")
    train.add_argument("--prune", action="store_true",
                       help="apply pessimistic-error pruning")
    train.add_argument("--data", type=Path, default=None,
                       help="load an .npz dataset instead of generating")
    train.add_argument("--save-model", type=Path, default=None,
                       help="write the tree as JSON")
    train.add_argument("--print-tree", type=int, metavar="DEPTH",
                       default=None, help="print the tree to this depth")
    train.add_argument("--rules", action="store_true",
                       help="print the model as decision rules")
    train.add_argument("--importance", action="store_true",
                       help="print per-attribute gini importances")
    train.add_argument("--distributed-source", action="store_true",
                       help="generate per-rank blocks on demand instead of "
                            "materializing the dataset (counter-based RNG)")
    train.add_argument("--stream", action="store_true",
                       help="consume the training set as a chunked stream "
                            "(epoch-loop induction over mergeable split "
                            "sketches; see docs/streaming.md)")
    train.add_argument("--stream-chunk", type=int, metavar="N",
                       default=_ConfigDefault("stream_chunk_records"),
                       help="records ingested per epoch chunk "
                            "(default %(default)s)")
    train.add_argument("--sketch-size", type=int, metavar="K",
                       default=_ConfigDefault("sketch_size"),
                       help="per-(node, attribute) sketch capacity; splits "
                            "are batch-exact while distinct values fit "
                            "(default %(default)s)")
    train.add_argument("--max-epochs", type=int, default=None, metavar="E",
                       help="with --stream: stop after E epoch chunks at a "
                            "sealed checkpoint cut (resume later with "
                            "--resume)")
    train.add_argument("--checkpoint-dir", type=Path, default=None,
                       help="snapshot the fit at level boundaries into this "
                            "directory; on the process backend crashed/"
                            "timed-out fits respawn from the last snapshot "
                            "(see also REPRO_SPMD_CHECKPOINT=<dir>)")
    train.add_argument("--checkpoint-every", type=int, default=1,
                       metavar="LEVELS",
                       help="levels between snapshots (default 1)")
    train.add_argument("--resume", action="store_true",
                       help="resume an interrupted fit from the newest "
                            "complete snapshot under --checkpoint-dir "
                            "(works on a different --processors count)")

    gen = sub.add_parser("generate", help="materialize a Quest dataset")
    gen.add_argument("--records", type=int, required=True)
    gen.add_argument("--function", choices=_FUNCTIONS,
                     metavar="F1..F10", default="F2")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--noise", type=float, default=0.0)
    gen.add_argument("--paper-profile", action="store_true",
                     help="7-attribute projection used in the paper (§5)")
    gen.add_argument("--out", type=Path, required=True,
                     help="output path (.npz or .csv)")

    scale = sub.add_parser("scale", help="run a scaling sweep")
    scale.add_argument("--sizes", type=_int_list, default=[5000, 10000, 20000])
    scale.add_argument("--processors", type=_int_list, default=[2, 4, 8, 16])
    scale.add_argument("--function", choices=_FUNCTIONS,
                       metavar="F1..F10", default="F2")
    scale.add_argument("--seed", type=int, default=1)
    scale.add_argument("--backend", choices=_BACKENDS, metavar="NAME",
                       default=None,
                       help="SPMD engine for every sweep cell: "
                            "%(choices)s (default: REPRO_SPMD_BACKEND "
                            "env var, then thread)")

    report = sub.add_parser("report", help="collect benchmark artifacts")
    report.add_argument("--results", type=Path,
                        default=Path("benchmarks/results"))
    report.add_argument("--out", type=Path, default=None,
                        help="write markdown here instead of stdout")

    publish = sub.add_parser(
        "publish", help="seal a saved model into a serving registry")
    publish.add_argument("--registry", type=Path, required=True,
                         help="registry root directory (created if missing)")
    publish.add_argument("--model", type=Path, required=True,
                         help="model JSON written by train --save-model")
    publish.add_argument("--activate", action="store_true",
                         help="make the published version current "
                              "(atomic hot-swap; running servers pick it "
                              "up between batches)")

    serve_cmd = sub.add_parser(
        "serve", help="run the batching prediction server (each batch "
                      "takes every request already queued, up to "
                      "--max-batch records; none waits for company)")
    serve_cmd.add_argument("--registry", type=Path, required=True,
                           help="registry root holding published versions")
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=0,
                           help="TCP port (0 = ephemeral)")
    serve_cmd.add_argument("--port-file", type=Path, default=None,
                           help="write the bound port here (atomically) — "
                                "for scripts using --port 0")
    serve_cmd.add_argument("--max-batch", type=int, default=256,
                           help="record budget of one kernel batch "
                                "(default 256)")

    query = sub.add_parser(
        "query", help="send a prediction batch to a running server")
    query.add_argument("--host", default="127.0.0.1")
    query.add_argument("--port", type=int, default=None)
    query.add_argument("--port-file", type=Path, default=None,
                       help="read the port from a serve --port-file")
    query.add_argument("--records", type=int, default=1000)
    query.add_argument("--function", choices=_FUNCTIONS,
                       metavar="F1..F10", default="F2")
    query.add_argument("--seed", type=int, default=0)
    query.add_argument("--proba", action="store_true",
                       help="also request per-class probabilities")
    query.add_argument("--expect-version", type=int, default=None,
                       help="fail unless this model version answered "
                            "(hot-swap round-trip assertion)")
    query.add_argument("--stats", action="store_true",
                       help="print the server's serving counters")
    query.add_argument("--shutdown", action="store_true",
                       help="ask the server to exit after the query")

    return parser


def _cmd_train(args: argparse.Namespace) -> int:
    from .baselines import induce_serial
    from .core import InductionConfig, ScalParC
    from .datagen import load_npz, paper_dataset
    from .tree import accuracy, prune_pessimistic, summarize, to_dict, to_text

    if args.data is not None:
        train_set = load_npz(args.data)
        test_set = None
    elif args.distributed_source:
        from .datagen import DistributedQuestSource

        train_set = DistributedQuestSource(
            args.records, args.function, seed=args.seed,
            perturbation=args.noise,
        )
        test_set = paper_dataset(max(args.records // 4, 100), args.function,
                                 seed=args.seed + 1)
    else:
        train_set = paper_dataset(args.records, args.function,
                                  seed=args.seed, perturbation=args.noise)
        test_set = paper_dataset(max(args.records // 4, 100), args.function,
                                 seed=args.seed + 1)
    knobs = {"split_mode": args.split_mode, "n_bins": args.bins,
             "vote_top_k": args.vote_top_k,
             "stream_chunk_records": args.stream_chunk,
             "sketch_size": args.sketch_size}
    config = InductionConfig(
        max_depth=args.max_depth,
        criterion=args.criterion,
        categorical_binary_subsets=args.subset_splits,
        **{field: value for field, value in knobs.items()
           if not isinstance(value, _ConfigDefault)},
    )
    if args.max_epochs is not None and not args.stream:
        print("error: --max-epochs requires --stream", file=sys.stderr)
        return 2
    if args.stream and args.serial:
        print("error: --stream needs the SPMD engine (drop --serial)",
              file=sys.stderr)
        return 2
    if args.serial and config.split_mode != "exact":
        print("note: --serial always uses the exact split enumeration "
              f"(--split-mode {config.split_mode} ignored)",
              file=sys.stderr)
    checkpoint = None
    if args.resume and args.checkpoint_dir is None:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    if args.checkpoint_dir is not None:
        from .runtime import CheckpointConfig

        checkpoint = CheckpointConfig(
            dir=str(args.checkpoint_dir),
            every=args.checkpoint_every,
            resume=bool(args.resume),
        )
    if args.serial:
        if args.trace:
            print("note: --trace has no effect with --serial "
                  "(no collectives to record)", file=sys.stderr)
        if checkpoint is not None:
            print("note: --checkpoint-dir has no effect with --serial",
                  file=sys.stderr)
        if args.distributed_source:
            train_set = train_set.materialize()
        tree = induce_serial(train_set, config)
        stats = None
        collector = None
    else:
        collector = None
        if args.trace:
            from .runtime import TraceCollector

            collector = TraceCollector()
        clf = ScalParC(args.processors, config=config, backend=args.backend)
        if args.stream:
            if args.distributed_source:
                print("note: --stream chunks a materialized dataset, so "
                      "--distributed-source is materialized first",
                      file=sys.stderr)
                train_set = train_set.materialize()
            result = clf.fit_stream(train_set, trace=collector,
                                    checkpoint=checkpoint,
                                    max_epochs=args.max_epochs)
        else:
            result = clf.fit(train_set, trace=collector,
                             checkpoint=checkpoint)
        tree, stats = result.tree, result.stats
    if args.prune:
        tree = prune_pessimistic(tree)

    print(f"tree: {summarize(tree)}")
    eval_train = train_set.materialize() if args.distributed_source \
        and not args.serial else train_set
    print(f"train accuracy: {accuracy(tree, eval_train):.4f}")
    if test_set is not None:
        print(f"test accuracy:  {accuracy(tree, test_set):.4f}")
    if stats is not None:
        print(stats.describe())
    if collector is not None:
        from .runtime import format_trace_report

        print(format_trace_report(collector))
    if args.print_tree is not None:
        print(to_text(tree, max_depth=args.print_tree))
    if args.rules:
        from .tree import rules_to_text

        print(rules_to_text(tree, min_records=max(
            int(tree.compiled().n_records[0]) // 50, 1)))
    if args.importance:
        from .tree import feature_importances

        for spec, imp in sorted(
            zip(train_set.schema, feature_importances(tree)),
            key=lambda t: -t[1],
        ):
            print(f"  {spec.name:12s} {imp:.3f}")
    if args.save_model is not None:
        args.save_model.write_text(json.dumps(to_dict(tree)))
        print(f"model written to {args.save_model}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from .datagen import generate_quest, paper_dataset, save_csv, save_npz

    if args.paper_profile:
        dataset = paper_dataset(args.records, args.function,
                                seed=args.seed, perturbation=args.noise)
    else:
        dataset = generate_quest(args.records, args.function,
                                 seed=args.seed, perturbation=args.noise)
    suffix = args.out.suffix.lower()
    if suffix == ".npz":
        save_npz(dataset, args.out)
    elif suffix == ".csv":
        save_csv(dataset, args.out)
    else:
        print(f"unsupported output format {suffix!r} (use .npz or .csv)",
              file=sys.stderr)
        return 2
    print(f"{dataset.n_records} records -> {args.out}")
    return 0


def _cmd_scale(args: argparse.Namespace) -> int:
    from .analysis import format_series, run_grid, speedup_series
    from .datagen import paper_dataset

    points = run_grid(
        lambda n: paper_dataset(n, args.function, seed=args.seed),
        args.sizes, args.processors,
        backend=args.backend,
        progress=lambda msg: print("  " + msg),
    )
    times = {}
    speedups = {}
    for n in args.sizes:
        s = speedup_series(points, n)
        times[f"{n}"] = [f"{t:.3f}" for t in s.parallel_times]
        speedups[f"{n}"] = [f"{x:.2f}" for x in s.speedups]
    print(format_series("N \\ p", args.processors, times,
                        title="modeled parallel runtime (s)"))
    print()
    print(format_series("N \\ p", args.processors, speedups,
                        title="speedup"))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis import results_to_markdown

    md = results_to_markdown(args.results,
                             title="ScalParC reproduction — measured results")
    if args.out is not None:
        args.out.write_text(md + "\n")
        print(f"report written to {args.out}")
    else:
        print(md)
    return 0


def _cmd_publish(args: argparse.Namespace) -> int:
    from .serving import ModelRegistry
    from .tree import from_dict

    try:
        tree = from_dict(json.loads(args.model.read_text()))
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot load model {args.model}: {exc}",
              file=sys.stderr)
        return 2
    registry = ModelRegistry(args.registry)
    info = registry.publish(tree, meta={"source": str(args.model)},
                            activate=args.activate)
    state = "current" if args.activate else "published"
    print(f"v{info.version} {state} in {args.registry} "
          f"(compiled digest {info.compiled_digest})")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serving import ModelRegistry, ServerConfig, serve

    config = ServerConfig(max_batch=args.max_batch)
    registry = ModelRegistry(args.registry)
    try:
        stats = asyncio.run(serve(
            registry, host=args.host, port=args.port, config=config,
            port_file=args.port_file,
        ))
    except KeyboardInterrupt:
        return 130
    print(stats.describe())
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from .datagen import paper_dataset
    from .serving import ServingClient

    if args.port is None:
        if args.port_file is None:
            print("error: --port or --port-file is required",
                  file=sys.stderr)
            return 2
        args.port = int(args.port_file.read_text().strip())
    dataset = paper_dataset(args.records, args.function, seed=args.seed)
    with ServingClient(args.host, args.port) as client:
        reply = client.predict(dataset.features_matrix(), proba=args.proba)
        hits = int((reply["labels"] == dataset.labels).sum())
        print(f"v{reply['version']} answered {args.records} records "
              f"(digest {reply['digest']}): "
              f"accuracy {hits / max(args.records, 1):.4f}")
        if args.stats:
            print(client.stats()["describe"])
        if args.shutdown:
            client.shutdown()
            print("server shut down")
    if args.expect_version is not None \
            and reply["version"] != args.expect_version:
        print(f"error: expected model v{args.expect_version} to answer, "
              f"got v{reply['version']}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "train":
        return _cmd_train(args)
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "scale":
        return _cmd_scale(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "publish":
        return _cmd_publish(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "query":
        return _cmd_query(args)
    raise AssertionError(f"unhandled command {args.command!r}")
