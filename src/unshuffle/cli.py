"""Command-line front end: corpus generation, diagnostics, the two solvers,
probability verification, a tiny synchronization demo, and a self-test.

Exit codes: 0 on success, 1 when a solver or check declares failure on
well-formed input, 2 on usage or I/O errors.  A command that builds a report
exits with its report's verdict.  All randomness flows from
``--seed``; two invocations with identical flags produce byte-identical
output files.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .corpus_io import (
    CorpusSpec,
    EmptyCorpusError,
    MalformedCorpusError,
    Report,
    load_corpus,
    load_truth,
    word_bytes_for,
    write_corpus,
    write_report,
    write_truth,
)
from .model import (
    HEADLINE_LENGTHS,
    InfeasibleParamsError,
    ModelParams,
    ShuffledCorpus,
    generate,
    headline_counts,
    make_rng,
)
from .multi_block import unshuffle_m
from .partitions import partition_profile, profile_to_csv
from .perms import BlockStructure, all_perms, coherent_block_table
from .probs import MC_EVENTS, monte_carlo
from .scoring import m_block_recovery, two_block_recovery
from .sync import (
    brute_force_sync,
    objective_pairwise,
    realigned_corpus,
    sample_sync_instance,
)
from .two_block import NotIdentifiableError, unshuffle2

EXIT_OK = 0
EXIT_SOLVER_FAILURE = 1
EXIT_USAGE = 2


def _parse_lengths(text: str) -> BlockStructure:
    try:
        lengths = tuple(int(x) for x in text.split(","))
        return BlockStructure(lengths)
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"bad block lengths {text!r}: {exc}")


def _parse_perm_counts(text: str) -> dict:
    """'1,2,3=4;3,1,2=2' -> {(0,1,2): 4, (2,0,1): 2} (input is 1-based)."""
    counts = {}
    for item in text.split(";"):
        if not item:
            continue
        try:
            perm_part, count_part = item.split("=")
            sigma = tuple(int(x) - 1 for x in perm_part.split(","))
            counts[sigma] = counts.get(sigma, 0) + int(count_part)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad permutation count {item!r}: {exc}")
    if not counts:
        raise argparse.ArgumentTypeError("empty permutation count spec")
    return counts


def _model_params(args) -> ModelParams:
    if args.perm_counts is not None:
        shuffle = args.perm_counts
    else:
        shuffle = args.nu
    return ModelParams(
        q=args.q,
        blocks=args.lengths,
        num_messages=args.n,
        noise_fraction=args.noise_fraction,
        shuffle=shuffle,
        restricted_prefix=args.restricted_prefix,
        distinguished_prefix=args.distinguished_prefix,
        seed=args.seed,
    )


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--q", type=int, required=True, help="alphabet size")
    parser.add_argument("--lengths", type=_parse_lengths, required=True,
                        help="comma-separated block lengths, e.g. 40,60")
    parser.add_argument("--n", type=int, required=True, help="number of messages")
    parser.add_argument("--lambda", dest="noise_fraction", type=float, default=0.0,
                        help="noise locus fraction")
    parser.add_argument("--nu", type=float, default=0.0,
                        help="two-block swapped column fraction")
    parser.add_argument("--perm-counts", type=_parse_perm_counts, default=None,
                        help="per-permutation column counts, 1-based one-line "
                             "form, e.g. '1,2=56;2,1=24' (overrides --nu)")
    parser.add_argument("--restricted-prefix", action="store_true")
    parser.add_argument("--distinguished-prefix", action="store_true")


def _add_corpus_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("corpus", type=Path, help="corpus file or directory")
    parser.add_argument("--record-len", type=int, required=True,
                        help="record length in symbol words")
    parser.add_argument("--word-bytes", type=int, default=1, choices=(1, 2, 4))


def _add_report_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json-report", type=Path, default=None,
                        help="write a JSON run report here")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", type=Path, default=None, help="output path")
    _add_report_flag(parser)


def _emit(report: Report, args) -> int:
    """Write and print ``report``; its ``success`` is the exit code."""
    if getattr(args, "json_report", None):
        write_report(report, args.json_report)
    print(f"{report.command}: {'ok' if report.success else 'FAILED'}")
    for key, value in sorted(report.result.items()):
        print(f"  {key}: {value}")
    return EXIT_OK if report.success else EXIT_SOLVER_FAILURE


def _cmd_gen(args) -> int:
    if args.out is None:
        print("gen: --out is required", file=sys.stderr)
        return EXIT_USAGE
    params = _model_params(args)
    word_bytes = args.word_bytes or word_bytes_for(params.q)
    spec = CorpusSpec(source=args.out, record_len=params.blocks.total,
                      word_bytes=word_bytes)
    if params.q > spec.q:  # before drawing a corpus that cannot be written
        raise ValueError(f"alphabet {params.q} does not fit {word_bytes}-byte words")
    corpus, truth = generate(params)
    write_corpus(corpus, spec)
    truth_path = Path(str(args.out) + ".truth.json")
    write_truth(truth, params.q, truth_path)
    report = Report(
        command="gen",
        params={"q": params.q, "lengths": list(params.blocks.lengths),
                "n": params.num_messages, "lambda": params.noise_fraction,
                "word_bytes": word_bytes},
        result={"corpus": str(args.out), "truth": str(truth_path),
                "rows": corpus.n_rows, "cols": corpus.n_cols},
        seed=args.seed,
    )
    return _emit(report, args)


def _cmd_analyze(args) -> int:
    spec = CorpusSpec(source=args.corpus, record_len=args.record_len,
                      word_bytes=args.word_bytes)
    corpus = load_corpus(spec)
    sizes = partition_profile(corpus)
    if args.out is not None:
        profile_to_csv(sizes, args.out)
    report = Report(
        command="analyze",
        params={"corpus": str(args.corpus), "record_len": args.record_len},
        result={"rows": corpus.n_rows, "cols": corpus.n_cols,
                "max_partition_size": int(sizes.max()),
                "two_valued_rows": (np.flatnonzero(sizes == 2) + 1).tolist()},
        diagnostics={"partition_sizes": sizes.tolist()},
        seed=args.seed,
    )
    return _emit(report, args)


def _truth_for(args, corpus):
    """The ``--truth`` sidecar, None without one.  Its record length and
    column count must match the corpus: the recovery checks compare column
    by column."""
    if args.truth is None:
        return None
    truth, _ = load_truth(args.truth)
    shape = (truth.blocks.total, len(truth.perm_index))
    if shape != corpus.values.shape:
        raise ValueError(
            f"truth sidecar {args.truth} describes {shape[1]} records of "
            f"length {shape[0]}, corpus has {corpus.n_cols} of length {corpus.n_rows}")
    return truth


def _cmd_unshuffle2(args) -> int:
    spec = CorpusSpec(source=args.corpus, record_len=args.record_len,
                      word_bytes=args.word_bytes)
    corpus = load_corpus(spec)
    truth = _truth_for(args, corpus)
    params = {"corpus": str(args.corpus), "record_len": args.record_len}
    try:
        result = unshuffle2(corpus)
    except NotIdentifiableError as exc:
        return _emit(Report(command="unshuffle2", params=params,
                            result={"failure_reason": str(exc)},
                            success=False, seed=args.seed), args)
    if args.out is not None:
        write_corpus(result.aligned,
                     CorpusSpec(source=args.out, record_len=args.record_len,
                                word_bytes=args.word_bytes))
    diagnostics = {}
    if truth is not None:
        diagnostics["recovered"] = bool(two_block_recovery(result, truth))
    report = Report(
        command="unshuffle2",
        params=params,
        result={"swapped_cols": (np.flatnonzero(result.swapped) + 1).tolist(),
                "first_block_len": result.first_block_len,
                "score": result.score},
        diagnostics=diagnostics,
        success=diagnostics.get("recovered", True),
        seed=args.seed,
    )
    return _emit(report, args)


def _cmd_unshuffle(args) -> int:
    spec = CorpusSpec(source=args.corpus, record_len=args.record_len,
                      word_bytes=args.word_bytes)
    corpus = load_corpus(spec)
    truth = _truth_for(args, corpus)
    result = unshuffle_m(corpus)
    if args.out is not None:
        write_corpus(result.aligned,
                     CorpusSpec(source=args.out, record_len=args.record_len,
                                word_bytes=args.word_bytes))
    diagnostics = {"trace": result.trace_as_dict()}
    if truth is not None:
        diagnostics["recovered"] = m_block_recovery(result, truth)
    report = Report(
        command="unshuffle",
        params={"corpus": str(args.corpus), "record_len": args.record_len},
        result={"block_count": result.block_count,
                "lengths": list(result.lengths),
                "failure_reason": result.failure_reason},
        diagnostics=diagnostics,
        success=result.success and diagnostics.get("recovered", True),
        seed=args.seed,
    )
    return _emit(report, args)


def _cmd_verify_prob(args) -> int:
    params = _model_params(args)
    prob_report = monte_carlo(args.event, params, args.trials)
    report = Report(
        command="verify-prob",
        params={"event": args.event, "q": params.q,
                "n": params.num_messages, "lambda": params.noise_fraction,
                "trials": args.trials},
        result={"closed_form": prob_report.closed_form,
                "mc_estimate": prob_report.mc_estimate,
                "mc_stderr": prob_report.mc_stderr,
                "agrees": prob_report.agrees},
        success=prob_report.agrees,
        seed=args.seed,
    )
    return _emit(report, args)


def _cmd_sync_demo(args) -> int:
    # An instance is a noiseless corpus of the model: check q and n as gen does.
    ModelParams(q=args.q, blocks=args.lengths, num_messages=args.n,
                noise_fraction=0.0)
    rng = make_rng(args.seed)
    instance, _, sigmas = sample_sync_instance(args.lengths, args.q, args.n, rng)
    assignment = brute_force_sync(instance)
    found = realigned_corpus(instance, assignment).values
    synchronized = bool(np.all(found == found[:, :1]))
    report = Report(
        command="sync-demo",
        params={"q": args.q, "lengths": list(args.lengths.lengths), "n": args.n},
        result={"objective": objective_pairwise(assignment, instance),
                "assignment": [[a + 1 for a in s] for s in assignment.sigmas],
                "synchronized": synchronized},
        success=synchronized,
        seed=args.seed,
    )
    return _emit(report, args)


def _selftest_two_block(seeds: int) -> tuple:
    blocks = BlockStructure((40, 60))
    hits = 0
    for seed in range(seeds):
        params = ModelParams(q=3, blocks=blocks, num_messages=80,
                             noise_fraction=0.5, shuffle=0.3, seed=seed)
        corpus, truth = generate(params)
        hits += two_block_recovery(unshuffle2(corpus), truth)
    return hits, seeds


def _selftest_partition_maxima() -> bool:
    def all_perm_corpus(lengths, q):
        blocks = BlockStructure(lengths)
        template = np.arange(blocks.total, dtype=np.int64) % q
        table = coherent_block_table(list(all_perms(blocks.block_count)), blocks)
        return ShuffledCorpus(values=template[table].T, q=q)

    small = int(partition_profile(all_perm_corpus((3, 5, 6, 7), 21)).max())
    large = int(partition_profile(all_perm_corpus((6, 9, 11, 12, 13), 51)).max())
    return small == 12 and large == 30


def _selftest_m_block(seeds: int) -> tuple:
    blocks = BlockStructure(HEADLINE_LENGTHS)
    hits = 0
    for seed in range(seeds):
        params = ModelParams(q=256, blocks=blocks, num_messages=80,
                             noise_fraction=0.5,
                             shuffle=headline_counts(make_rng(10_000 + seed)),
                             restricted_prefix=True, seed=seed)
        corpus, truth = generate(params)
        hits += m_block_recovery(unshuffle_m(corpus), truth)
    return hits, seeds


def _cmd_selftest(args) -> int:
    two_seeds, m_seeds = (20, 10) if args.quick else (100, 50)
    hits2, total2 = _selftest_two_block(two_seeds)
    maxima_ok = _selftest_partition_maxima()
    hits_m, total_m = _selftest_m_block(m_seeds)
    ok = (hits2 >= 0.9 * total2) and maxima_ok and (hits_m >= 0.9 * total_m)
    print(f"two-block recovery: {hits2}/{total2}")
    print(f"partition maxima exact: {maxima_ok}")
    print(f"m-block recovery: {hits_m}/{total_m}")
    print(f"selftest: {'ok' if ok else 'FAILED'}")
    return EXIT_OK if ok else EXIT_SOLVER_FAILURE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: ``parse_args`` returns a
    fresh namespace on every call, so nothing carries over between calls."""
    parser = argparse.ArgumentParser(
        prog="unshuffle-cli",
        description="Generate, diagnose, and unshuffle block-permuted corpora.")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for all randomness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a corpus and truth sidecar")
    _add_model_flags(p)
    p.add_argument("--word-bytes", type=int, default=0, choices=(0, 1, 2, 4),
                   help="word size; 0 = smallest fitting the alphabet")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("analyze", help="partition profile and two-valued rows")
    _add_corpus_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("unshuffle2", help="two-block unshuffling")
    _add_corpus_flags(p)
    p.add_argument("--truth", type=Path, default=None,
                   help="truth sidecar to score against")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_unshuffle2)

    p = sub.add_parser("unshuffle", help="M-block unshuffling")
    _add_corpus_flags(p)
    p.add_argument("--truth", type=Path, default=None,
                   help="truth sidecar to score against")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_unshuffle)

    p = sub.add_parser("verify-prob", help="Monte Carlo vs closed form")
    p.add_argument("event", choices=MC_EVENTS)
    _add_model_flags(p)
    p.add_argument("--trials", type=int, default=10_000)
    _add_report_flag(p)
    p.set_defaults(func=_cmd_verify_prob)

    p = sub.add_parser("sync-demo", help="tiny brute-force synchronization")
    p.add_argument("--q", type=int, default=17)
    p.add_argument("--lengths", type=_parse_lengths, default=BlockStructure((2, 3, 4)))
    p.add_argument("--n", type=int, default=4)
    _add_report_flag(p)
    p.set_defaults(func=_cmd_sync_demo)

    p = sub.add_parser("selftest", help="reproduce the headline experiments")
    p.add_argument("--quick", action="store_true")
    p.set_defaults(func=_cmd_selftest)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (MalformedCorpusError, EmptyCorpusError, InfeasibleParamsError,
            FileNotFoundError, IsADirectoryError, PermissionError, OSError,
            ValueError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
