"""Command-line harness:
``python -m repro.bench {fig10,fig11,st,analyze,corpus}``.

``corpus`` runs the ground-truth corpus harness (``docs/corpus.md``):
``--generate N --seed S`` sweeps N seeded known-verdict programs from
the property-based generator (cross-checked against the concrete
interpreter, disagreements shrunk to minimized reproducers), ``--dir
PATH`` scores a directory-of-files corpus with a ``labels.json``
manifest, and with neither flag the builtin corpora (the fig10/fig11
registry and the labeled ST controllers) are scored.  Prints a per-class
precision/recall/confusion table and exits nonzero on any soundness
violation or oracle disagreement.  ``--inject-flip ID`` deliberately
flips one ground-truth label as a harness self-test.

``st`` checks the labeled IEC 61131-3 Structured Text controller corpus
(``examples/st_controllers/``, parsed through the ``st`` frontend) one
row per program against ground truth, and exits nonzero on any verdict
mismatch -- the CLI half of the frontend smoke job.

``analyze FILE...`` runs the inference on arbitrary source files: the
frontend is sniffed from each file's extension (``.st``/``.iecst`` ->
``st``; ``.imp``/``.tnt``/``.c`` -> ``native``) or forced for all files
with ``--language``.  Parse and validation failures print structured
position-carrying diagnostics and exit 2.

With ``--store DIR`` the HIPTNT+ runs read and populate a persistent
spec store (see ``docs/store.md``) and each table grows a ``HIPTNT+
(warm)`` row measuring re-analysis against the populated store --
cold-vs-warm in one table.  ``--cold`` wipes the store first, so the
first sweep is guaranteed cold even when DIR already holds entries from
an earlier invocation.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.reporting import fig10_table, fig11_table


def main() -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation tables.",
    )
    parser.add_argument(
        "table", choices=["fig10", "fig11", "st", "analyze", "corpus"]
    )
    parser.add_argument(
        "paths", nargs="*", metavar="FILE",
        help="source files for the 'analyze' command (frontend sniffed "
        "from the extension unless --language is given)",
    )
    parser.add_argument(
        "--language", metavar="NAME", default=None,
        help="source frontend for 'analyze' inputs (native, st); default "
        "sniffs each file's extension. For 'corpus --dir' it overrides "
        "the manifest's language.",
    )
    parser.add_argument(
        "--generate", type=int, metavar="N", default=None,
        help="'corpus': sweep N seeded known-verdict programs from the "
        "property-based generator instead of an on-disk corpus",
    )
    parser.add_argument(
        "--seed", metavar="S", default="demo",
        help="'corpus --generate': generator seed (default: demo); the "
        "same (N, S) reproduces the identical corpus and report",
    )
    parser.add_argument(
        "--dir", metavar="PATH", default=None,
        help="'corpus': score the labels.json-manifested corpus in PATH",
    )
    parser.add_argument(
        "--fuel", type=int, metavar="STEPS", default=None,
        help="'corpus': interpreter-oracle step budget for cross-checking "
        "generated/witnessed instances (default: 60000)",
    )
    parser.add_argument(
        "--inject-flip", metavar="ID", default=None,
        help="'corpus': deliberately flip the ground-truth label of "
        "instance ID (harness self-test; the run must fail)",
    )
    parser.add_argument(
        "--timeout", type=float, default=60.0,
        help="per-run wall-clock budget in seconds (paper used 300)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the benchmark sweep (0 = one per CPU; "
        "1 = sequential, in-process). Tables are deterministic and "
        "identical for any jobs value.",
    )
    parser.add_argument(
        "--store", metavar="DIR", default=None,
        help="persistent spec-store directory; adds a 'HIPTNT+ (warm)' "
        "row re-running HIPTNT+ against the store the first sweep "
        "populated (cold-vs-warm comparison)",
    )
    parser.add_argument(
        "--cold", action="store_true",
        help="wipe the --store directory before running, guaranteeing the "
        "first HIPTNT+ sweep is cold",
    )
    # parse_intermixed_args lets options appear before the FILE
    # positionals ("analyze --language st prog"), which plain
    # parse_args mis-handles for nargs="*".
    args = parser.parse_intermixed_args()
    if args.table == "analyze":
        if not args.paths:
            parser.error("'analyze' needs at least one FILE")
        if args.store or args.cold:
            parser.error("'analyze' takes no --store/--cold")
        sys.exit(_analyze_files(args))
    if args.paths:
        parser.error(f"'{args.table}' takes no FILE arguments")
    if args.language is not None and args.table != "corpus":
        parser.error(
            "--language only applies to the 'analyze' and 'corpus' commands"
        )
    if args.table != "corpus" and (
        args.generate is not None or args.dir or args.fuel is not None
        or args.inject_flip
    ):
        parser.error(
            "--generate/--seed/--dir/--fuel/--inject-flip only apply to "
            "the 'corpus' command"
        )
    if args.table == "st" and args.cold:
        parser.error("'st' takes no --cold")
    if args.cold and not args.store:
        parser.error("--cold requires --store DIR")
    if args.cold:
        from repro.store import SpecStore

        SpecStore(args.store).wipe()
    if args.table == "corpus":
        sys.exit(_corpus(args, parser))
    if args.table == "st":
        from repro.bench.reporting import st_table

        table = st_table(timeout=args.timeout, jobs=args.jobs,
                         store=args.store)
        print(table)
        sys.exit(0 if "all verdicts match" in table else 1)
    render = fig10_table if args.table == "fig10" else fig11_table
    print(render(timeout=args.timeout, jobs=args.jobs, store=args.store))


def _corpus(args, parser) -> int:
    """``corpus``: run the ground-truth harness and score it.

    Exit code 0 when every swept benchmark is clean, 1 on any soundness
    violation or oracle disagreement.  Output carries no wall-clock data,
    so a seeded ``--generate`` rerun is byte-identical.
    """
    from repro.corpus import (
        DirectoryBenchmark,
        GeneratedBenchmark,
        ManifestError,
        builtin_benchmarks,
        run_corpus,
    )
    from repro.corpus.run import DEFAULT_FUEL

    if args.generate is not None and args.dir:
        parser.error("--generate and --dir are mutually exclusive")
    if args.generate is not None and args.generate <= 0:
        parser.error("--generate needs a positive N")
    if args.generate is not None:
        benchmarks = [GeneratedBenchmark(args.generate, seed=args.seed)]
    elif args.dir:
        try:
            benchmarks = [
                DirectoryBenchmark(args.dir, language=args.language)
            ]
        except ManifestError as exc:
            print(f"corpus: {exc}", file=sys.stderr)
            return 2
    else:
        benchmarks = builtin_benchmarks()
    if args.inject_flip is not None and not any(
        any(inst.id == args.inject_flip for inst in bench)
        for bench in benchmarks
    ):
        print(
            f"corpus: no instance named {args.inject_flip!r} to flip",
            file=sys.stderr,
        )
        return 2

    status = 0
    for bench in benchmarks:
        flip = args.inject_flip
        if flip is not None and not any(i.id == flip for i in bench):
            flip = None  # the flipped instance lives in another benchmark
        result = run_corpus(
            bench,
            timeout=args.timeout,
            jobs=args.jobs,
            store=args.store,
            time_budget=min(args.timeout, 15.0),
            fuel=args.fuel if args.fuel is not None else DEFAULT_FUEL,
            flip=flip,
        )
        print(result.render())
        print()
        if not result.ok:
            status = 1
    return status


def _analyze_files(args) -> int:
    """``analyze FILE...``: infer each file through its frontend.

    Prints one block per file with the per-method verdicts (desugared
    loop methods are folded into their parents and skipped).  Exit code
    0 on success for every file, 2 when any file fails to read, parse
    or validate -- with rendered position-carrying diagnostics.
    """
    import pathlib

    from repro.analysis.diagnostics import ProgramInvalid
    from repro.core.pipeline import infer_source
    from repro.lang.errors import SourceError
    from repro.lang.frontends import UnknownLanguageError, language_for_path

    status = 0
    for path in args.paths:
        try:
            language = args.language or language_for_path(path)
            source = pathlib.Path(path).read_text()
        except (UnknownLanguageError, OSError) as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            status = 2
            continue
        try:
            result = infer_source(
                source, language=language, filename=path,
                time_budget=min(args.timeout, 15.0), jobs=args.jobs,
            )
        except (SourceError, ProgramInvalid) as exc:
            print(f"{path}: [{language}]", file=sys.stderr)
            for d in getattr(exc, "diagnostics", []):
                rendered = d.render() if hasattr(d, "render") else str(d)
                print(f"  {rendered}", file=sys.stderr)
            status = 2
            continue
        print(f"{path}: [{language}]")
        for name in result.specs:
            if result.program.methods[name].source_loop:
                continue
            print(f"  {name}: {result.verdict(name)}")
    return status


if __name__ == "__main__":
    main()
