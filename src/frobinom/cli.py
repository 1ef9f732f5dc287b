"""Command-line surface.

Subcommands: report | semigroup | decompose | core | admissible | verify.
Default output is human-readable text; --format json emits a deterministic
envelope {command, input, result, timing_ms} with sorted keys and every
integer rendered as a decimal string, so consumers never lose precision.

Text output elides lists longer than ELIDE_ABOVE as count, min and max.
`semigroup` lists the gaps only when the genus is at most ELIDE_ABOVE;
above that, text and JSON (`gaps_elided`) give count, min and max, and the
Apery set in the same output determines the gaps.
`report` emits the Apery set's box (`apery_box`: the base and the
generators with their coordinate bounds, which rebuild the set exactly) and
lists the set only when the base is at most ELIDE_ABOVE; above that, JSON
carries `apery_set_elided` = {count, min, max} in its place and the text
line is read off the box, so `report` costs O(box) at every n.

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


def _fmt_list(values):
    """Text rendering of an integer list, elided beyond ELIDE_ABOVE."""
    values = list(values)
    if len(values) <= ELIDE_ABOVE:
        return "[" + ", ".join(str(v) for v in values) + "]"
    return f"({len(values)} elements; min {min(values)}, max {max(values)})"


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


# --- subcommand handlers ---------------------------------------------------
# each returns (input_echo, result_payload, text_lines, exit_code); only text mode reads text_lines

def _run_report(args):
    _check_n(args.n)
    spec = bn.bn_spec(args.n)
    report = bn.bn_report(args.n)
    base, box = report.apery_box
    top = report.frobenius + base  # max of the Apery set
    if base <= ELIDE_ABOVE:
        listed = bn.bn_apery_closed(args.n)[1]
        apery = {"apery_set": list(listed)}
    else:
        # one element per class mod the base, each up to the size of F:
        # the box and the extremes stand in for the listing
        listed = None
        apery = {"apery_set_elided": {"count": base, "min": 0, "max": top}}
    result = {
        **report._asdict(),
        "factorization": spec.factorization,
        "scale": spec.scale,
        "apery_box": {"base": base, "generators": box},
        **apery,
    }
    # the lines render in order, so an over-long integer fails on the same
    # line as it would with the set listed
    text = [
        f"n                   {report.n}",
        "factorization       " + " * ".join(
            f"{p}^{k}" if k > 1 else str(p) for p, k in spec.factorization),
        f"scale               {spec.scale}",
        f"minimal generators  {_fmt_list(report.minimal_generators)}",
        f"embedding dimension {report.embedding_dimension}",
        f"apery base          {base}",
        "apery set           " + (_fmt_list(listed) if listed is not None
                                  else f"({base} elements; min 0, max {top})"),
        f"frobenius           {report.frobenius}",
        f"genus               {report.genus}",
        f"pseudo-frobenius    {_fmt_list(report.pseudo_frobenius)}",
        f"type                {report.type}",
        f"symmetric           {str(report.symmetric).lower()}",
        f"telescopic          {str(report.telescopic).lower()}",
    ]
    return {"n": args.n}, result, text, EXIT_OK


def _run_semigroup(args):
    _check_generators(args.generators, args.apery_base)
    S = NumericalSemigroup(args.generators)
    table = S.apery_set(args.apery_base)
    frobenius, genus = S.frobenius(), S.genus()
    pseudo_frobenius = S.pseudo_frobenius()
    result = {
        "minimal_generators": list(S.generators),
        "multiplicity": S.multiplicity,
        "apery_base": table.base,
        "apery_set": sorted(table.entries),
        "frobenius": frobenius,
        "genus": genus,
        "pseudo_frobenius": pseudo_frobenius,
        "type": len(pseudo_frobenius),
        "symmetric": S.is_symmetric(),
        "telescopic": S.is_telescopic(),
    }
    text = [
        f"minimal generators  {_fmt_list(S.generators)}",
        f"multiplicity        {S.multiplicity}",
        f"apery base          {table.base}",
        f"apery set           {_fmt_list(result['apery_set'])}",
        f"frobenius           {frobenius}",
        f"genus               {genus}",
    ]
    if genus <= ELIDE_ABOVE:
        gaps = S.gaps()
        result["gaps"] = gaps
        text.append(f"gaps                {_fmt_list(gaps)}")
    else:
        # 1 is always the least gap of a proper semigroup
        result["gaps_elided"] = {"count": genus, "min": 1, "max": frobenius}
        text.append(f"gaps                ({genus} gaps; min 1, max {frobenius})")
    text += [
        f"pseudo-frobenius    {_fmt_list(pseudo_frobenius)}",
        f"type                {result['type']}",
        f"symmetric           {str(result['symmetric']).lower()}",
        f"telescopic          {str(result['telescopic']).lower()}",
    ]
    echo = {"generators": list(args.generators), "apery_base": args.apery_base}
    return echo, result, text, EXIT_OK


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
    terms = " + ".join(f"{c}*{b}" for c, b in zip(rep.coefficients, rep.basis) if c)
    label = f"C({args.n},{args.m})" + ("/p" if rep.scaled else "")
    text = [
        f"target       {label} = {rep.value}",
        f"basis        {_fmt_list(rep.basis)}",
        f"coefficients {_fmt_list(rep.coefficients)}",
        f"identity     {terms or '0'} = {rep.value}",
    ]
    return {"n": args.n, "m": args.m}, result, text, EXIT_OK


def _run_core(args):
    if args.semigroup is not None:
        _check_generators(args.semigroup)
        S = core.NumericalSet.from_semigroup(NumericalSemigroup(args.semigroup))
        # a semigroup is closed under addition, so A(S) = S
        A = S
        gaps = hooks = S.gaps()
        echo = {"generators": list(args.semigroup)}
    else:
        S = core.NumericalSet(args.gaps or ())
        A = core.a_set(S)
        gaps, hooks = S.gaps(), A.gaps()
        echo = {"gaps": list(args.gaps or ())}
    lam = core.partition_of(S)
    # by the hook theorem the hooks of lam are the gaps of A(S)
    result = {
        "frobenius": S.frobenius,
        "gaps": gaps,
        "partition": list(lam.parts),
        "hook_set": hooks,
        "a_set_gaps": hooks,
        "a_set_frobenius": A.frobenius,
    }

    def text():
        yield f"frobenius  {S.frobenius}"
        yield f"gaps       {_fmt_list(gaps)}"
        yield "partition  " + (str(tuple(lam.parts)) if len(lam) <= ELIDE_ABOVE
                               else _fmt_list(lam.parts))
        yield f"hook set   {_fmt_list(hooks)}"
        a_shown = A.members_below_frobenius() + [A.frobenius + 1]
        yield "A(S)       " + (f"{{{', '.join(str(x) for x in a_shown)}, ...}}"
                               if len(a_shown) <= ELIDE_ABOVE else _fmt_list(a_shown))

    return echo, result, text(), EXIT_OK


def _run_admissible(args):
    _check_n(args.n)
    out = core.algorithm1(args.n, args.s_seed, args.p, force_base=args.force_base)
    result = out._asdict()
    text = [
        f"triple  ({out.triple[0]}, {out.triple[1]}, {out.triple[2]})",
        f"count   {out.count}",
    ]
    echo = {"n": args.n, "s_seed": args.s_seed, "p": args.p,
            "force_base": args.force_base}
    return echo, result, text, EXIT_OK


def _run_verify(args):
    if args.max_n > VERIFY_CAP:
        raise UsageError(f"--max-n {args.max_n} exceeds the cap {VERIFY_CAP}")
    checks = []
    for n in range(4, args.max_n + 1):
        if is_prime(n):
            continue
        cmp = bn.verify_closed_vs_oracle(n)
        for field, (closed, oracle) in sorted(cmp.fields.items()):
            ok = closed == oracle
            detail = "" if ok else f"closed={closed!r} oracle={oracle!r}"
            checks.append((f"n={n} {field}", ok, detail))
    for label, ok in invariant_report():
        checks.append((label, ok, ""))
    all_passed = all(ok for _, ok, _ in checks)
    result = {
        "checks": [{"name": name, "passed": ok, "detail": detail}
                   for name, ok, detail in checks],
        "all_passed": all_passed,
    }
    width = max(len(name) for name, _, _ in checks)
    text = [f"{'PASS' if ok else 'FAIL'}  {name.ljust(width)}  {detail}".rstrip()
            for name, ok, detail in checks]
    text.append(f"{'all checks passed' if all_passed else 'MISMATCHES FOUND'}")
    return ({"max_n": args.max_n}, result, text,
            EXIT_OK if all_passed else EXIT_MISMATCH)


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
        echo, result, text, code = args.handler(args)
        # rendered inside the try: str() of an int over the interpreter's
        # digit limit raises ValueError here, as it does in the text handlers
        if args.format == "json":
            envelope = {
                "command": args.command,
                "input": echo,
                "result": result,
                "timing_ms": int((time.perf_counter() - started) * 1000),
            }
            lines = [json.dumps(_stringify(envelope), sort_keys=True)]
        else:
            lines = list(text)
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
