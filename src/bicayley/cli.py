"""Command-line front end: family, analyze, verify, census, export.

Every run emits a single JSON document on stdout unless a file format
(graph6 or edge list) was requested.  Exit codes: 0 success, 1 verification
failure, 2 usage or input error.  `family` passes its options to
`families.build_family`; `verify --target arithmetic` bounds trials * |H|.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import families
from .errors import BudgetError, GraphParseError, ParameterError, UsageError
from .graphs import _DECIMAL, Graph, format_edge_list, graph6_encode, graph_to_json_dict, parse_graph_text
from .metacyclic import TABLE_BUDGET, make_group
from .permgroup import DEGREE_BUDGET, compose, invert, is_permutation, orbit_labels, perm_powers
from .symmetry import classify


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_graph(graph: Graph, fmt: str, out_path: str | None) -> None:
    if fmt == "g6":
        _emit(graph6_encode(graph) + "\n", out_path)
    elif fmt == "edges":
        _emit(format_edge_list(graph), out_path)
    else:
        _emit(json.dumps(graph_to_json_dict(graph)) + "\n", out_path)


def _read_graph(path: str, fmt: str) -> Graph:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GraphParseError(f"byte {raw[exc.start]:#04x} is not UTF-8 text", exc.start) from None
    return parse_graph_text(text, fmt)


def _cmd_family(args: argparse.Namespace) -> int:
    bg = families.build_family(args.kind, args.t, args.m, args.n)
    _emit_graph(bg.graph, args.format, args.out)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    graph = _read_graph(args.infile, args.assume_format)
    report = classify(graph)
    _emit(report.to_json() + "\n", args.out)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    graph = _read_graph(args.infile, args.assume_format)
    _emit_graph(graph, args.format, args.out)
    return 0


def integer(text: str, name: str = "value") -> int:
    """An optional '-' and ASCII digits 0-9, the grammar of every integer option, as an int."""
    if not _DECIMAL.fullmatch(text.removeprefix("-")):
        raise ParameterError(f"{name} must be an integer of ASCII digits 0-9, got {text!r}")
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        raise ParameterError(f"{name} must be an integer, got {len(text)} digits") from None


def _parse_group(text: str):
    parts = text.split(",")
    if len(parts) != 4:
        raise ParameterError(f"expected p,m,n,r, got {text!r}")
    return make_group(*(integer(field, name) for name, field in zip("pmnr", parts)))


def _cmd_census(args: argparse.Namespace) -> int:
    group = _parse_group(args.group)
    result = families.census(group, connected_only=not args.include_disconnected)
    _emit(json.dumps(families.census_to_dict(result, group)) + "\n", args.out)
    return 0


# a time bound on the oracle: 10^5 trials take ~0.55 s at |H| = 27 and ~1.7 s at
# |H| = 729 (2-core Intel Xeon), so 10^6 stay under a minute; the time grows with
# trials * |H| (4000 trials take 4.3 s at |H| = 3^9), held to TRIALS_BUDGET * 3^6
TRIALS_BUDGET = 10**6
# trials drawn at a time; the powers of a chunk of the block's distinct
# elements come from one perm_powers call, every exponent of each element
TRIAL_BLOCK = 4096
# each check of a block compares stacks of rows, one row of |H| entries a
# trial (or a new element for inv), of at most this many entries each; pow
# stacks a chunk of distinct elements this way, and its result has a row per
# trial of those elements.  A pow call makes a few array operations per
# exponent class and per squaring, whatever its rows: at 2^14 entries (22
# rows at |H| = 729) the oracle took ~20 % longer than at 2^16; at 2^17 the
# peak RSS rose by ~4 MB
CHUNK_ENTRIES = 2**16


class _NotARank(Exception):
    """A right_mul_rows row has an entry outside [0, |H|); args[0] is its rank."""


def _verify_arithmetic(args: argparse.Namespace) -> dict:
    import numpy as np

    if args.trials < 0:
        raise ParameterError(f"--trials must be at least 0, got {args.trials}")
    if args.trials > TRIALS_BUDGET:
        raise ParameterError(f"--trials must be at most {TRIALS_BUDGET}, got {args.trials}")
    group = make_group(args.p, args.m, args.n, args.r)
    # the sizes refused before any scalar mul: too large to enumerate, or to permute
    group.check_enumerable()
    if group.order > DEGREE_BUDGET:
        raise BudgetError(f"degree {group.order} exceeds the budget {DEGREE_BUDGET}")
    if args.trials > (most := TRIALS_BUDGET * 3**6 // group.order):
        raise ParameterError(f"--trials must be at most {most} at |H| = {group.order}, got {args.trials}")
    els, rank, size = group.elements(), group.rank, group.order
    gens = (group.gen_a, group.gen_b)
    # |<rho_a, rho_b>| by a centralizer certificate; rho_g is h -> h g and lambda_g
    # h -> g h, rank arrays from scalar mul.  If the four are permutations, each
    # rho commutes with each lambda (r[l] == l[r]: (g' h) g == g' (h g) for every h)
    # and each pair has one orbit, then <rho> centralizes a transitive group, so it
    # is semiregular (Dixon & Mortimer, 1996, Thm 4.2A) and transitive: order |H|
    rho = [np.array([rank(group.mul(h, g)) for h in els]) for g in gens]
    lam = [np.array([rank(group.mul(g, h)) for h in els]) for g in gens]
    regular = (all(is_permutation(row, size) for row in rho + lam)
               and all(np.array_equal(r[l], l[r]) for r in rho for l in lam)
               and all((orbit_labels(size, pair) == 0).all() for pair in (rho, lam)))
    order = size if regular else None  # a scalar law that fails the certificate
    chunk = max(1, CHUNK_ENTRIES // size)

    def build(ranks):
        # the right_mul_ranks row of each rank; the stacked kernels and the
        # narrow table need every entry to be a rank
        block = group.right_mul_rows(ranks)
        bad = (block < 0) | (block >= size)
        if bad.any():
            raise _NotARank(ranks[int(bad.any(axis=1).argmax())])
        return block

    def chunked(check, *ranks):
        # check(rows of ranks[0][s:e], ...) on consecutive chunks, concatenated
        return np.concatenate([check(*(rows(r[s : s + chunk]) for r in ranks))
                               for s in range(0, len(ranks[0]), chunk)])

    failures = []
    try:
        if size <= TABLE_BUDGET:  # T[x] = right_mul_ranks(x), built once, a chunk at a time
            table = np.empty((size, size), np.min_scalar_type(size - 1))
            for start in range(0, size, chunk):
                table[start : start + chunk] = build(np.arange(start, min(start + chunk, size)))
            rows = table.__getitem__
        else:
            rows = build
        # the kernel's generator rows must be the ones scalar mul builds
        for gen, row, perm in zip(gens, rows([rank(g) for g in gens]), rho):
            if not np.array_equal(row, perm):
                failures.append({"check": "row", "g": group.element_str(gen)})
        inv_ok = {}  # the inv check depends on g alone: one verdict per element rank
        rng = random.Random(args.seed)
        for start in range(0, args.trials, TRIAL_BLOCK):
            # the draws of a block in trial order: the ranks of g and h, and k
            draws = [v for _ in range(start, min(start + TRIAL_BLOCK, args.trials))
                     for v in (rng.randrange(size), rng.randrange(size), rng.randrange(-size, size + 1))]
            gi, hi, ks = draws[0::3], draws[1::3], draws[2::3]
            del draws
            ghi = [rank(group.mul(els[x], els[y])) for x, y in zip(gi, hi)]
            pki = [rank(group.pow(els[x], k)) for x, k in zip(gi, ks)]
            by_g = {}  # g -> its trials in the block
            for t, x in enumerate(gi):
                by_g.setdefault(x, []).append(t)
            mul_ok = chunked(lambda g, h, gh: (gh == compose(g, h)).all(axis=1), gi, hi, ghi)
            new = [x for x in by_g if x not in inv_ok]
            if new:
                inverses = [rank(group.inv(els[x])) for x in new]
                verdicts = chunked(lambda g, g_inv: (g_inv == invert(g)).all(axis=1), new, inverses)
                inv_ok.update(zip(new, verdicts.tolist()))
            # the powers of a chunk of the block's elements from one call,
            # every exponent of each element, compared a chunk at a time
            pow_ok = np.empty(len(gi), bool)
            distinct = list(by_g)
            for first in range(0, len(distinct), chunk):
                elements = distinct[first : first + chunk]
                trials = [t for x in elements for t in by_g[x]]
                powers = perm_powers(rows(elements), [ks[t] for t in trials],
                                     [j for j, x in enumerate(elements) for _ in by_g[x]])
                want = [pki[t] for t in trials]
                pow_ok[trials] = np.concatenate([(powers[a : a + chunk] == rows(want[a : a + chunk])).all(axis=1)
                                                 for a in range(0, len(want), chunk)])
            for t in np.flatnonzero(~(mul_ok & pow_ok & np.array([inv_ok[x] for x in gi]))).tolist():
                s = group.element_str(els[gi[t]])
                checks = ((mul_ok[t], {"check": "mul", "g": s, "h": group.element_str(els[hi[t]])}),
                          (inv_ok[gi[t]], {"check": "inv", "g": s}), (pow_ok[t], {"check": "pow", "g": s, "k": ks[t]}))
                failures.extend(record for passed, record in checks if not passed)
                if len(failures) > 10:
                    break
            if len(failures) > 10:
                break
    except _NotARank as fault:  # a kernel fault: the verification fails
        failures.append({"check": "row", "g": group.element_str(els[fault.args[0]])})
    return {
        "target": "arithmetic",
        "group": [args.p, args.m, args.n, args.r],
        "trials": args.trials,
        "seed": args.seed,
        "regular_representation_order": order,
        "order_matches": order == size,
        "failures": failures,
        "passed": not failures and order == size,
    }


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.target == "lemma51":
        report = families.verify_semisymmetric_family(args.t)
    elif args.target == "lemma52":
        report = families.verify_symmetric_family(args.t)
    else:
        report = _verify_arithmetic(args)
    _emit(json.dumps(report) + "\n", args.out)
    return 0 if report["passed"] else 1


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors take the shape of a library error: one
    `error: ...` line on stderr and exit code 2, with no usage block.
    Subparsers are made of the same class."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bicayley",
        description="Bi-Cayley graphs over metacyclic p-groups: build, analyze, verify, census.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_family = sub.add_parser("family", help="emit a named family member")
    p_family.add_argument("--kind", choices=["gamma", "sigma", "abelian"], required=True)
    p_family.add_argument("--t", type=integer, default=None, help="parameter for gamma/sigma")
    p_family.add_argument("--m", type=integer, default=None, help="abelian family m")
    p_family.add_argument("--n", type=integer, default=None, help="abelian family n")
    p_family.add_argument("--format", choices=["g6", "edges", "json"], default="json")
    p_family.add_argument("--out", default=None)
    p_family.set_defaults(func=_cmd_family)

    p_analyze = sub.add_parser("analyze", help="symmetry report for a graph file")
    p_analyze.add_argument("--in", dest="infile", required=True)
    p_analyze.add_argument("--assume-format", choices=["auto", "g6", "edges"], default="auto")
    p_analyze.add_argument("--out", default=None)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_verify = sub.add_parser("verify", help="run a verification target")
    p_verify.add_argument("--target", choices=["lemma51", "lemma52", "arithmetic"], required=True)
    p_verify.add_argument("--t", type=integer, default=1)
    p_verify.add_argument("--p", type=integer, default=3)
    p_verify.add_argument("--m", type=integer, default=2)
    p_verify.add_argument("--n", type=integer, default=1)
    p_verify.add_argument("--r", type=integer, default=1)
    p_verify.add_argument("--trials", type=integer, default=10000)
    p_verify.add_argument("--seed", type=integer, default=0)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_census = sub.add_parser("census", help="edge-transitive census over a group")
    p_census.add_argument("--group", required=True, help="p,m,n,r")
    p_census.add_argument("--include-disconnected", action="store_true")
    p_census.add_argument("--out", default=None)
    p_census.set_defaults(func=_cmd_census)

    p_export = sub.add_parser("export", help="convert a graph file between formats")
    p_export.add_argument("--in", dest="infile", required=True)
    p_export.add_argument("--assume-format", choices=["auto", "g6", "edges"], default="auto")
    p_export.add_argument("--format", choices=["g6", "edges", "json"], required=True)
    p_export.add_argument("--out", default=None)
    p_export.set_defaults(func=_cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
