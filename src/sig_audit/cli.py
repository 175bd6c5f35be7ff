"""Command line front door.

Subcommands wire the library into one audit run or expose the
individual stages (matrix export, coverage stats, structure dumps,
payload mutation, single-category classification).

Exit codes: 0 success, 1 usage error or input or parse failure, 2 when
findings exist and --fail-on-findings was given.

Each command imports the modules it runs when it runs: ``matrix`` and
``stats`` load no classifier, structural pass, mutator or report code.

The cyclic garbage collector is paused while a command runs and then
restored to the state it was in. An audit makes no reference cycles,
so its memory stays flat without the collector, and the workers it
forks inherit the pause, so neither side rewrites the collector's
headers on the pages the fork shares. When ``main`` runs as the
program (called with no argument list, as the console script and
``python -m sig_audit.cli`` call it), it also freezes the heap on its
way out: the interpreter runs a full collection at shutdown, paused
or not, and a frozen object is not traversed. A library caller that
passes an argument list finds the collector's state and freeze count
as it left them.

Every input file (signatures, vectors, ``--set-a``, ``--pipeline``,
``--families`` and ``stats --matrix``) may start with a UTF-8 byte
order mark.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from .errors import AuditError, dump_json, read_text


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1: 2 means findings under --fail-on-findings."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"sig-audit: error: {message}\n")


def _add_shared(parser: argparse.ArgumentParser, matching: bool = True) -> None:
    """The corpus and, when ``matching``, the pipeline and case mode."""
    parser.add_argument("--signatures", type=Path, help="signature file (default: bundled set)")
    parser.add_argument("--vectors", type=Path, help="vector file (default: bundled set)")
    if matching:
        mode = parser.add_mutually_exclusive_group()
        mode.add_argument("--pipeline", type=Path, help="pipeline JSON file (default: stock pipeline)")
        mode.add_argument("--raw", action="store_true", help="use the empty pipeline")
        parser.add_argument("--case-sensitive", action="store_true", help="disable case-insensitive matching")


def _inputs(args):
    """The corpus and the pipeline that --signatures, --vectors, --pipeline
    and --raw name. The pipeline is None when neither of the last two is
    given: ``run_audit`` then runs the stock pipeline and notes that it
    is reverse engineered."""
    from . import corpus as corpus_mod, normalize

    corpus = corpus_mod.open_corpus(args.signatures, args.vectors)
    if args.pipeline is None and not args.raw:
        return corpus, None
    return corpus, normalize.load_pipeline(args.pipeline, args.raw)


def _run_audit(args):
    from . import classify, corpus as corpus_mod, report

    # the small files first: a bad one fails before any rule compiles
    set_a = None if getattr(args, "set_a", None) is None else corpus_mod.load_id_list(args.set_a)
    families = None
    if args.families is not None:
        families = classify.default_families() + classify.load_families(args.families)
    corpus, pipeline = _inputs(args)
    return report.run_audit(corpus, pipeline, set_a, families, args.case_sensitive)


def _cmd_audit(args) -> int:
    from . import report

    rep = _run_audit(args)
    sys.stdout.buffer.write(report.render(rep, args.format))
    if args.fail_on_findings and rep.findings:
        return 2
    return 0


def _matrix(args, set_a=None):
    """The deployed detection matrix of the corpus and pipeline the flags
    name. An id of ``set_a`` that the corpus lacks fails before any rule
    compiles."""
    from . import corpus as corpus_mod, matcher, normalize

    corpus, pipeline = _inputs(args)
    if set_a is not None:
        corpus_mod.set_a_ids(set_a, (sig.id for sig in corpus.signatures))
    if pipeline is None:
        pipeline = normalize.default_pipeline()
    return matcher.detection_matrix(corpus, pipeline, case_sensitive=args.case_sensitive)


def _cmd_matrix(args) -> int:
    m = _matrix(args)
    if args.format == "csv":
        sys.stdout.write(m.to_csv())
    else:
        sys.stdout.write(m.to_json() + "\n")
    return 0


def _cmd_stats(args) -> int:
    from . import corpus as corpus_mod, matcher, stats

    if args.matrix:
        # the matrix was built already: corpus, pipeline and case mode are its own
        unused = [
            flag
            for flag, value in (
                ("--signatures", args.signatures),
                ("--vectors", args.vectors),
                ("--pipeline", args.pipeline),
                ("--raw", args.raw),
                ("--case-sensitive", args.case_sensitive),
            )
            if value
        ]
        if unused:
            args.usage_error(f"--matrix cannot be combined with {', '.join(unused)}")
    set_a = None if args.set_a is None else corpus_mod.load_id_list(args.set_a)  # before any work
    if args.matrix:
        m = matcher.DetectionMatrix.from_json(read_text(args.matrix))
    else:
        m = _matrix(args, set_a)
    profile = stats.contribution(m)
    doc = {"profile": profile.to_dict()}
    set_a = corpus_mod.set_a_ids(set_a, m.signature_ids)
    if set_a:
        a, b = stats.partition(m, ids=set_a)
        doc["partition"] = {"set_a": sorted(a), "set_b": sorted(b)}
        doc["overlap"] = stats.overlap(m, a, b).to_dict()
    if args.histogram:
        lines = ["signature,count"]
        lines += [f"{matcher.csv_field(e.signature_id)},{e.count}" for e in profile.entries]
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        sys.stdout.write(dump_json(doc) + "\n")
    return 0


def _cmd_structure(args) -> int:
    from . import corpus as corpus_mod, structural

    corpus = corpus_mod.open_corpus(args.signatures, args.vectors)
    try:
        sig = corpus.signature(args.sig_id)
    except KeyError:
        raise AuditError(f"no such signature: {args.sig_id}") from None
    patterns = structural.PatternTable([sig])
    tokenized = structural.extract_operators(sig, patterns=patterns)
    subs = structural.expand_subrules(sig, patterns)
    bounds = structural.bounded_specials(sig, patterns)
    doc = {
        "signature": sig.id,
        "pattern": sig.pattern_source,
        "operators": sorted(tokenized.operators),
        "subrules": list(subs.subrules),
        "expansion_complete": subs.expansion_complete,
        "bounds": [
            {
                "position": b.position,
                "char_class": b.char_class,
                "max_occurrences": b.max_occurrences,
            }
            for b in bounds
        ],
    }
    sys.stdout.write(dump_json(doc) + "\n")
    return 0


def _cmd_mutate(args) -> int:
    from urllib.parse import quote

    from . import mutate

    schemes = mutate.DEFAULT_SCHEMES
    if args.schemes is not None:  # an empty list is an empty token, which is an error
        schemes = tuple(mutate.parse_scheme(tok) for tok in args.schemes.split(","))
    config = mutate.MutationConfig(schemes=schemes, budget=args.budget, seed=args.seed)
    for mutant, _scheme in mutate.generate(args.payload, config):
        sys.stdout.write(quote(mutant, safe="") + "\n")
    return 0


def _cmd_classify(args) -> int:
    from . import classify

    wanted = None
    if args.only is not None:  # an empty list is an empty token, which is an error
        wanted = {tok.strip().lower() for tok in args.only.split(",")}
        valid = [label.value.lower() for label in classify.Label]
        unknown = sorted(wanted.difference(valid))
        if unknown:
            raise AuditError(
                f"unknown label {', '.join(map(repr, unknown))} in --only; "
                f"valid labels: {', '.join(valid)}"
            )
    rep = _run_audit(args)
    rows = [
        row for row in rep.to_dict()["findings"]
        if wanted is None or row["label"].lower() in wanted
    ]
    sys.stdout.write(dump_json(rows) + "\n")
    if args.fail_on_findings and rows:
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sig-audit",
        description="Audit a regex signature set against an attack-vector corpus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("audit", help="full audit run")
    _add_shared(p)
    p.add_argument("--format", default="json", choices=["json", "text", "csv"])
    p.add_argument("--set-a", type=Path, help="file listing the generic signature set")
    p.add_argument("--families", type=Path, help="JSON file with extra related-operator families")
    p.add_argument("--fail-on-findings", action="store_true", help="exit 2 when any finding exists")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("matrix", help="export the detection matrix")
    _add_shared(p)
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("stats", help="contribution and overlap statistics")
    _add_shared(p)
    p.add_argument("--matrix", type=Path, help="previously exported matrix JSON")
    p.add_argument("--set-a", type=Path)
    p.add_argument("--histogram", action="store_true", help="emit a per-signature count CSV")
    p.set_defaults(func=_cmd_stats, usage_error=p.error)

    p = sub.add_parser("structure", help="operators, sub-rules and bounds of one signature")
    _add_shared(p, matching=False)
    p.add_argument("sig_id")
    p.set_defaults(func=_cmd_structure)

    p = sub.add_parser("mutate", help="print url-encoded mutants of a payload")
    p.add_argument("--payload", required=True)
    p.add_argument("--schemes", help="comma list, e.g. case_toggle,comment_inject,bounded_repeat=(:3")
    p.add_argument("--budget", type=int, default=32)
    p.add_argument("--seed", type=int, default=0, help="PRNG seed for the case-toggle mutants")
    p.set_defaults(func=_cmd_mutate)

    p = sub.add_parser("classify", help="findings only, optionally one category")
    _add_shared(p)
    p.add_argument("--only", help="comma list of labels, e.g. redundant,susceptible")
    p.add_argument("--families", type=Path, help="JSON file with extra related-operator families")
    p.add_argument("--fail-on-findings", action="store_true")
    p.set_defaults(func=_cmd_classify)

    return parser


def main(argv=None) -> int:
    """Run the command ``argv`` names, ``sys.argv[1:]`` when it is None;
    only that call, the program's own, freezes the heap on its way out."""
    parser = build_parser()
    args = parser.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (AuditError, OSError, ValueError) as exc:
        print(f"sig-audit: error: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()
        if argv is None:
            gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
