"""Command-line surface.

Subcommands: report | semigroup | decompose | core | admissible | verify.
Default output is human-readable text; --format json emits a deterministic
envelope {command, input, result, timing_ms} with sorted keys and every
integer rendered as a decimal string, so consumers never lose precision.

Each handler returns only its result; one renderer makes both views.  A
text row's label names the result field it shows, with spaces and hyphens
read as underscores, and a field that is missing is shown from its
`<field>_elided` = {count, min, max}.  `_ROW_TEXT` holds the few rows that
are not one field's plain rendering (factorization, target, identity,
partition, A(S), triple), and `verify` prints a table of its checks.

Text output elides lists longer than ELIDE_ABOVE as count, min and max.
`semigroup` lists the gaps only when the genus is at most ELIDE_ABOVE;
above that, its result carries `gaps_elided` instead, and the Apery set in
the same output determines the gaps.  `report` emits the Apery set's box
(`apery_box`: the base and the generators with their coordinate bounds,
which rebuild the set exactly) and lists the set only when the base is at
most ELIDE_ABOVE; above that, `apery_set_elided` takes its place, so
`report` costs O(box) at every n.

Exit codes: 0 success, 1 verification mismatch, 2 domain error, 3 internal
error (an invariant violation or any other unexpected exception), 64 usage
error.  n, multiplicities and --apery-base are capped at MAX_N, which is
`exactmath.PRIME_CACHE_CAP`, so the prime cache covers every n accepted;
`semigroup` and `core --semigroup` also refuse a multiplicity (or
--apery-base) times number of distinct generators above ENGINE_BUDGET,
before the engine runs.
"""

import argparse
import json
import sys
import time

from . import binomial as bn
from . import corepartitions as core
from .exactmath import PRIME_CACHE_CAP as MAX_N, invariant_report, is_prime
from .semigroup import NumericalSemigroup

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_DOMAIN = 2
EXIT_INTERNAL = 3
EXIT_USAGE = 64

ELIDE_ABOVE = 1000     # text elides lists longer than this; report lists Ap up to this
                       # base, semigroup the gaps up to this genus
VERIFY_CAP = 40        # largest --max-n the verify sweep accepts
ENGINE_BUDGET = 6 * 10**6  # multiplicity x distinct generators the engine may take: a whole
                           # `semigroup` call costs 0.9-1.7 us per class per generator
                           # (m = 3*10^5 to 10^6), so about 10 s at the bound


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the contract here is 64
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _stringify(x, rendered=None):
    """Render every integer as a decimal string, recursively; bools stay bools.

    `rendered` maps the id of each list or tuple already rendered to its
    rendering, so a list that appears under several keys is rendered once.
    """
    if rendered is None:
        rendered = {}
    if isinstance(x, bool):
        return x
    if isinstance(x, int):
        return str(x)
    if isinstance(x, (list, tuple)):
        if id(x) not in rendered:
            # a list of plain ints (no bools) renders at C speed
            rendered[id(x)] = (list(map(str, x)) if set(map(type, x)) <= {int}
                               else [_stringify(v, rendered) for v in x])
        return rendered[id(x)]
    if isinstance(x, dict):
        return {k: _stringify(v, rendered) for k, v in x.items()}
    return x


def _check_n(n):
    if n > MAX_N:
        raise UsageError(f"n = {n} exceeds the CLI bound {MAX_N}")


def _check_generators(generators, apery_base=None):
    # each Apery table the engine builds has one entry per unit of its base
    # (the multiplicity, and --apery-base if given), and each generator walks
    # it once; the distinct generators on the command line bound the minimal ones
    m, e = min(generators), len(set(generators))
    if m > MAX_N:
        raise UsageError(f"multiplicity {m} exceeds the CLI bound {MAX_N}")
    if apery_base is not None and apery_base > MAX_N:
        raise UsageError(f"--apery-base {apery_base} exceeds the CLI bound {MAX_N}")
    for name, base in (("multiplicity", m), ("--apery-base", apery_base or 0)):
        if base * e > ENGINE_BUDGET:
            raise UsageError(f"{name} {base} x {e} distinct generators = {base * e} "
                             f"exceeds the engine budget {ENGINE_BUDGET}")


def _verify_checks(max_n):
    """{name, passed, detail} of each closed form against the engine for the
    composite n <= max_n, then of each arithmetic self-check."""
    if max_n > VERIFY_CAP:
        raise UsageError(f"--max-n {max_n} exceeds the cap {VERIFY_CAP}")
    checks = []
    for n in range(4, max_n + 1):
        if is_prime(n):
            continue
        cmp = bn.verify_closed_vs_oracle(n)
        for field, (closed, oracle) in sorted(cmp.fields.items()):
            ok = closed == oracle
            detail = "" if ok else f"closed={closed!r} oracle={oracle!r}"
            checks.append({"name": f"n={n} {field}", "passed": ok, "detail": detail})
    for label, ok in invariant_report():
        checks.append({"name": label, "passed": ok, "detail": ""})
    return checks


# --- subcommand handlers ---------------------------------------------------
# each returns (input_echo, result, exit_code); `_text_lines` renders the result as text

def _run_report(args):
    _check_n(args.n)
    spec = bn.bn_spec(args.n)
    report = bn.bn_report(args.n)
    base, box = report.apery_box
    if base <= ELIDE_ABOVE:
        apery = {"apery_set": list(bn.bn_apery_closed(args.n)[1])}
    else:
        # one element per class mod the base, each up to the size of F:
        # the box and the extremes stand in for the listing
        apery = {"apery_set_elided": {"count": base, "min": 0, "max": report.frobenius + base}}
    result = {
        **report._asdict(),
        "factorization": spec.factorization,
        "scale": spec.scale,
        "apery_box": {"base": base, "generators": box},
        **apery,
    }
    return {"n": args.n}, result, EXIT_OK


def _run_semigroup(args):
    _check_generators(args.generators, args.apery_base)
    S = NumericalSemigroup(args.generators)
    table = S.apery_set(args.apery_base)
    pseudo_frobenius = S.pseudo_frobenius()
    result = {
        "minimal_generators": list(S.generators),
        "multiplicity": S.multiplicity,
        "apery_base": table.base,
        "apery_set": sorted(table.entries),
        "frobenius": S.frobenius(),
        "genus": S.genus(),
        "pseudo_frobenius": pseudo_frobenius,
        "type": len(pseudo_frobenius),
        "symmetric": S.is_symmetric(),
        "telescopic": S.is_telescopic(),
    }
    if result["genus"] <= ELIDE_ABOVE:
        result["gaps"] = S.gaps()
    else:
        # 1 is always the least gap of a proper semigroup
        result["gaps_elided"] = {"count": result["genus"], "min": 1,
                                 "max": result["frobenius"]}
    echo = {"generators": list(args.generators), "apery_base": args.apery_base}
    return echo, result, EXIT_OK


def _run_decompose(args):
    _check_n(args.n)
    rep = bn.decompose(args.n, args.m)
    result = {
        "n": rep.target[0],
        "m": rep.target[1],
        "basis": list(rep.basis),
        "coefficients": list(rep.coefficients),
        "value": rep.value,
        "scaled": rep.scaled,
        "binomial": rep.value * bn.bn_spec(args.n).scale,
    }
    return {"n": args.n, "m": args.m}, result, EXIT_OK


def _run_core(args):
    if args.semigroup is not None:
        _check_generators(args.semigroup)
        # a semigroup is closed under addition, so A(S) = S
        S = A = core.NumericalSet.from_semigroup(NumericalSemigroup(args.semigroup))
        gaps = hooks = S.gaps()
        echo = {"generators": list(args.semigroup)}
    else:
        S = core.NumericalSet(args.gaps or ())
        A = core.a_set(S)
        gaps, hooks = S.gaps(), A.gaps()
        echo = {"gaps": list(args.gaps or ())}
    # by the hook theorem the hooks of the partition are the gaps of A(S)
    result = {
        "frobenius": S.frobenius,
        "gaps": gaps,
        "partition": list(core.partition_of(S).parts),
        "hook_set": hooks,
        "a_set_gaps": hooks,
        "a_set_frobenius": A.frobenius,
    }
    return echo, result, EXIT_OK


def _run_admissible(args):
    _check_n(args.n)
    out = core.algorithm1(args.n, args.s_seed, args.p, force_base=args.force_base)
    echo = {"n": args.n, "s_seed": args.s_seed, "p": args.p,
            "force_base": args.force_base}
    return echo, out._asdict(), EXIT_OK


def _run_verify(args):
    checks = _verify_checks(args.max_n)
    all_passed = all(check["passed"] for check in checks)
    return ({"max_n": args.max_n}, {"checks": checks, "all_passed": all_passed},
            EXIT_OK if all_passed else EXIT_MISMATCH)


# --- text view -------------------------------------------------------------
# Each row's label names the result field it shows, spaces and hyphens read
# as underscores.  The rows render in order, so the digit-limit error names
# the first over-long integer in row order.

_ROWS = {  # command: (label column width, labels)
    "report": (20, ("n", "factorization", "scale", "minimal generators",
                    "embedding dimension", "apery base", "apery set", "frobenius", "genus",
                    "pseudo-frobenius", "type", "symmetric", "telescopic")),
    "semigroup": (20, ("minimal generators", "multiplicity", "apery base", "apery set",
                       "frobenius", "genus", "gaps", "pseudo-frobenius", "type",
                       "symmetric", "telescopic")),
    "decompose": (13, ("target", "basis", "coefficients", "identity")),
    "core": (11, ("frobenius", "gaps", "partition", "hook set", "A(S)")),
    "admissible": (8, ("triple", "count")),
}


def _elided(count, low, high, noun="elements"):
    return f"({count} {noun}; min {low}, max {high})"


def _fmt_list(values):
    """Text rendering of an integer list, elided beyond ELIDE_ABOVE."""
    if len(values) <= ELIDE_ABOVE:
        return "[" + ", ".join(map(str, values)) + "]"
    return _elided(len(values), min(values), max(values))


def _fmt_tuple(values):
    return str(tuple(values)) if len(values) <= ELIDE_ABOVE else _fmt_list(values)


def _a_set_text(result):
    # A(S) is its members up to F + 1, then every integer above; the members
    # are listed only when there are at most ELIDE_ABOVE of them
    f, gaps = result["a_set_frobenius"], result["a_set_gaps"]
    count = f + 2 - len(gaps)
    if count > ELIDE_ABOVE:
        return _elided(count, 0, f + 1)
    return "{" + ", ".join(map(str, sorted(set(range(f + 2)).difference(gaps)))) + ", ...}"


# the rows whose text is not one field's plain rendering
_ROW_TEXT = {
    "factorization": lambda r: " * ".join(
        f"{p}^{k}" if k > 1 else str(p) for p, k in r["factorization"]),
    "target": lambda r: f"C({r['n']},{r['m']}){'/p' if r['scaled'] else ''} = {r['value']}",
    "identity": lambda r: (" + ".join(f"{c}*{b}" for c, b in zip(r["coefficients"], r["basis"])
                                      if c) or "0") + f" = {r['value']}",
    "partition": lambda r: _fmt_tuple(r["partition"]),
    "A(S)": _a_set_text,
    "triple": lambda r: _fmt_tuple(r["triple"]),
}


def _field_text(result, field):
    """A field's plain rendering, or its `_elided` count and extremes when it is missing."""
    if field not in result:
        cut = result[field + "_elided"]
        return _elided(cut["count"], cut["min"], cut["max"],
                       "gaps" if field == "gaps" else "elements")
    value = result[field]
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (list, tuple)):
        return _fmt_list(value)
    return str(value)


def _text_lines(command, result):
    """The text view of a command's result, every line built before any prints."""
    if command == "verify":  # the check table: one line per check, then the verdict
        width = max(len(c["name"]) for c in result["checks"])
        return [f"{'PASS' if c['passed'] else 'FAIL'}  {c['name'].ljust(width)}  {c['detail']}"
                .rstrip() for c in result["checks"]] + [
                    "all checks passed" if result["all_passed"] else "MISMATCHES FOUND"]
    width, labels = _ROWS[command]
    return [label.ljust(width) + (_ROW_TEXT[label](result) if label in _ROW_TEXT else
                                  _field_text(result, label.replace(" ", "_").replace("-", "_")))
            for label in labels]


# --- parser and dispatch ---------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="frobinom",
                     description="Numerical semigroups generated by binomial coefficients")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default=argparse.SUPPRESS)

    p = sub.add_parser("report", help="closed-form report for one upper index n")
    p.add_argument("n", type=int)
    common(p)
    p.set_defaults(handler=_run_report)

    p = sub.add_parser("semigroup", help="generic engine on an explicit generating set")
    p.add_argument("generators", type=int, nargs="+")
    p.add_argument("--apery-base", type=int, default=None)
    common(p)
    p.set_defaults(handler=_run_semigroup)

    p = sub.add_parser("decompose", help="write C(n,m) over the minimal system")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    common(p)
    p.set_defaults(handler=_run_decompose)

    p = sub.add_parser("core", help="partition, hook set and A(S) of a numerical set")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--gaps", type=int, nargs="*")
    group.add_argument("--semigroup", type=int, nargs="+")
    common(p)
    p.set_defaults(handler=_run_core)

    p = sub.add_parser("admissible", help="triple completion for the binomial semigroup")
    p.add_argument("n", type=int)
    p.add_argument("s_seed", type=int)
    p.add_argument("p", type=int)
    p.add_argument("--force-base", action="store_true")
    common(p)
    p.set_defaults(handler=_run_admissible)

    p = sub.add_parser("verify", help="closed forms vs the generic engine, plus arithmetic self-checks")
    p.add_argument("--max-n", type=int, default=30)
    common(p)
    p.set_defaults(handler=_run_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        echo, result, code = args.handler(args)
        # rendered inside the try, so str() of an int over the interpreter's
        # digit limit raises ValueError here, before anything prints
        if args.format == "json":
            envelope = {
                "command": args.command,
                "input": echo,
                "result": result,
                "timing_ms": int((time.perf_counter() - started) * 1000),
            }
            lines = [json.dumps(_stringify(envelope), sort_keys=True)]
        else:
            lines = _text_lines(args.command, result)
    except UsageError as exc:
        print(f"frobinom: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"frobinom: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except Exception as exc:
        # exit 1 belongs to a verify mismatch, so no stray exception may reach it
        print(f"frobinom: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
