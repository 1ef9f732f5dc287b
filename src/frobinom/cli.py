"""Command-line surface.

Subcommands: report | semigroup | decompose | core | admissible | verify.
Default output is human-readable text; --format json emits an envelope
{command, input, result, timing_ms}, deterministic apart from timing_ms,
with sorted keys and every integer rendered as a decimal string, so
consumers never lose precision.

Arguments are read from one table, `_COMMANDS` (handler, positionals,
options and help of each command), without argparse, whose import and
parser build cost more than a small command's own work.  An option takes
`--name value` or `--name=value`, with no prefix abbreviations; --format
may come before the command or anywhere after it, the last one winning.
A token that `int()` reads is a value, so `-5` and `-1_0` are numbers; any
other token that starts with `-` is an option.  A usage error prints the
usage and `frobinom: error: ...` on stderr and exits 64; -h or --help
prints the usage on stdout and exits 0.

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

Exit codes: 0 success, 1 verification mismatch (a closed form that raises
in `verify` is one), 2 domain error, 3 internal error (an invariant
violation, a stdout closed by its reader, or any other unexpected
exception), 64 usage error.  n, multiplicities and --apery-base
are capped at MAX_N = 10^6, the CLI's own bound; a test keeps it at most
`exactmath.PRIME_CACHE_CAP`, above which every binomial takes
`math.comb`'s quadratic route.  One engine budget bounds every engine run,
and is checked before the engine starts: `semigroup` and `core --semigroup`
refuse a multiplicity (or --apery-base) times number of distinct generators
above ENGINE_BUDGET, and `verify --max-n` takes 4 up to where the same
product for each n's engine run, `oracle.engine_cost(n)`, summed over the
composite n of `oracle.verify_sweep`, stays within it (354).  `verify`
prints the rows of `oracle.verify_rows`, which compares each n of the same
sweep and runs the arithmetic self-checks; the CLI keeps only the budget and
the rendering.  `verify` alone imports `oracle`, as a JSON call alone
imports `json`, so no other command loads it; `binomial`, `corepartitions`
and `semigroup` are imported with the CLI.
"""

import os
import sys
import time
from types import SimpleNamespace

from . import binomial as bn
from . import corepartitions as core
from .semigroup import NumericalSemigroup

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_DOMAIN = 2
EXIT_INTERNAL = 3
EXIT_USAGE = 64

MAX_N = 10**6          # largest n, multiplicity or --apery-base the CLI takes
ELIDE_ABOVE = 1000     # text elides lists longer than this; report lists Ap up to this
                       # base, semigroup the gaps up to this genus
ENGINE_BUDGET = 6 * 10**6  # multiplicity x distinct generators the engine may take, summed
                           # over a verify sweep: a whole `semigroup` call costs 0.9-1.7 us
                           # per class per generator (m = 3*10^5 to 10^6), so about 10 s at
                           # the bound


class UsageError(Exception):
    pass


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


def _check_max_n(max_n):
    """Refuse a `verify` sweep that checks no closed form, or whose engine
    runs, the sum of `oracle.engine_cost(n)` over `oracle.verify_sweep(max_n)`,
    take more than ENGINE_BUDGET: the first n that takes the sum past it is
    named, before any engine work."""
    if max_n < 4:  # below 4, the least composite n, no closed form is checked
        raise UsageError(f"--max-n {max_n} is below 4, the least composite n")
    from . import oracle  # imported here, so only verify loads it

    cost = 0
    for n in oracle.verify_sweep(max_n):
        cost += oracle.engine_cost(n)
        if cost > ENGINE_BUDGET:
            raise UsageError(f"--max-n {max_n} exceeds the engine budget {ENGINE_BUDGET} at n={n}")


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
        # `value` itself when the family is unscaled: no multiply by 1
        "binomial": rep.value * bn.bn_spec(args.n).scale if rep.scaled else rep.value,
    }
    return {"n": args.n, "m": args.m}, result, EXIT_OK


def _run_core(args):
    if args.semigroup is not None:
        _check_generators(args.semigroup)
        # a semigroup is closed under addition, so A(S) = S
        S = core.NumericalSet.from_semigroup(NumericalSemigroup(args.semigroup))
        gaps = hooks = S.gaps()
        echo = {"generators": list(args.semigroup)}
    else:
        S = core.NumericalSet(args.gaps)
        gaps, hooks = S.gaps(), core.a_set(S).gaps()
        echo = {"gaps": list(args.gaps)}
    # by the hook theorem the hooks of the partition are the gaps of A(S)
    result = {
        "frobenius": S.frobenius,
        "gaps": gaps,
        "partition": list(core.partition_of(S)),
        "hook_set": hooks,
    }
    return echo, result, EXIT_OK


def _run_admissible(args):
    _check_n(args.n)
    out = bn.algorithm1(args.n, args.s_seed, args.p, force_base=args.force_base)
    echo = {"n": args.n, "s_seed": args.s_seed, "p": args.p,
            "force_base": args.force_base}
    return echo, out._asdict(), EXIT_OK


def _run_verify(args):
    from . import oracle

    _check_max_n(args.max_n)
    checks = oracle.verify_rows(args.max_n)
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
    # A(S) has the Frobenius number F of S, so it is its members up to F + 1,
    # then every integer above; its gaps are the hooks, and the members are
    # listed only when there are at most ELIDE_ABOVE of them
    f, gaps = result["frobenius"], result["hook_set"]
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


# --- argument parsing and dispatch ----------------------------------------
# command: (handler, positionals, options, help).  A positional or an option
# maps to the count of ints it takes: 1, "+" for one or more, "*" for any, 0
# for a flag; an option also to its default.  --format may go anywhere.

_COMMANDS = {
    "report": (_run_report, {"n": 1}, {}, "closed-form report for one upper index n"),
    "semigroup": (_run_semigroup, {"generators": "+"}, {"--apery-base": (1, None)},
                  "generic engine on an explicit generating set"),
    "decompose": (_run_decompose, {"n": 1, "m": 1}, {}, "write C(n,m) over the minimal system"),
    "core": (_run_core, {}, {"--gaps": ("*", None), "--semigroup": ("+", None)},
             "partition, hook set and A(S) of a numerical set; give exactly one option"),
    "admissible": (_run_admissible, {"n": 1, "s_seed": 1, "p": 1}, {"--force-base": (0, False)},
                   "triple completion for the binomial semigroup"),
    "verify": (_run_verify, {}, {"--max-n": (1, 30)},
               "closed forms vs the generic engine, plus arithmetic self-checks"),
}


def _usage(command):
    """The usage line of a command, or of the program when command is None."""
    if command is None:
        return "usage: frobinom [--format {text,json}] {" + ",".join(_COMMANDS) + "} ..."
    _, positionals, options, _ = _COMMANDS[command]
    words = [name + " ..." * (nargs == "+") for name, nargs in positionals.items()]
    words += [f"[{name}{' N' * (nargs != 0)}{' ...' * (nargs in ('*', '+'))}]"
              for name, (nargs, _) in options.items()]
    return " ".join(["usage: frobinom", command, *words, "[--format {text,json}]"])


def _is_option(token):
    # a token that int() reads is a value, not an option
    if token.startswith("-"):
        try:
            int(token)
        except ValueError:
            return True
    return False


def _parse(argv):
    """argv as a namespace: command, handler, format, and each argument and
    option under its name (an option not given holds its default).

    A usage error prints the usage and the error on stderr and exits 64;
    -h or --help prints the usage and what each command does, and exits 0.
    """
    args = SimpleNamespace(command=None, format="text")
    positionals, options, values, extra, closed = {}, {"--format": (1, "text")}, [], [], False
    # --name=value is --name value; reversed, so that pop() takes the next token
    tokens = [part for token in reversed(argv)
              for part in reversed(token.split("=", 1) if token.startswith("--") else [token])]
    try:
        while tokens:
            token = tokens.pop()
            if token in ("-h", "--help"):
                print(_usage(args.command), *(f"  {name:<11} {spec[3]}" for name, spec
                                              in _COMMANDS.items() if args.command in (None, name)),
                      sep="\n", flush=True)  # a closed stdout raises here, inside main's try
                raise SystemExit(EXIT_OK)
            if _is_option(token):
                nargs, closed, run = options[token][0], bool(values), []
                while tokens and not _is_option(tokens[-1]) and nargs != len(run):
                    run.append(tokens.pop())
                if not run and nargs in (1, "+"):
                    raise UsageError(f"{token} takes a value")
                run = [*map(str if token == "--format" else int, run)]
                # a flag is True, a one-value option its value, a list option the list
                setattr(args, token[2:].replace("-", "_"),
                        run if nargs in ("*", "+") else run[0] if run else True)
            elif args.command is None:
                args.command, (args.handler, positionals, more, _) = token, _COMMANDS[token]
                options.update(more)
                vars(args).update((name[2:].replace("-", "_"), d) for name, (_, d) in more.items())
            elif len(values) < len(positionals) or "+" in positionals.values() and not closed:
                # a list positional takes one run of values: a value after an
                # option that follows the run is extra
                values.append(int(token))
            else:
                extra.append(token)
        missing = list(positionals)[len(values):] if args.command else ["command"]
        if missing or extra:
            raise UsageError(f"missing {' '.join(missing)}" if missing else
                             f"unrecognized arguments: {' '.join(extra)}")
        if args.format not in ("text", "json"):
            raise UsageError(f"--format takes text or json, not {args.format!r}")
        if args.command == "core" and (args.gaps is None) == (args.semigroup is None):
            raise UsageError("core takes exactly one of --gaps and --semigroup")
    except (UsageError, KeyError, ValueError) as exc:
        message = f"unrecognized argument {exc}" if isinstance(exc, KeyError) else exc
        print(_usage(args.command), f"frobinom: error: {message}", sep="\n", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None
    vars(args).update(zip(positionals, [values] if "+" in positionals.values() else values))
    return args


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        started = time.perf_counter()
        echo, result, code = args.handler(args)
        # rendered inside the try, so str() of an int over the interpreter's
        # digit limit raises ValueError here, before anything prints
        if args.format == "json":
            import json  # imported here, so a text call does not load it

            envelope = {
                "command": args.command,
                "input": echo,
                "result": result,
                "timing_ms": int((time.perf_counter() - started) * 1000),
            }
            lines = [json.dumps(_stringify(envelope), sort_keys=True)]
        else:
            lines = _text_lines(args.command, result)
        # written and flushed inside the try, so a reader that closed stdout
        # gets exit 3 and one error line, not a traceback and exit 1
        print(*lines, sep="\n", flush=True)
    except UsageError as exc:
        print(f"frobinom: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"frobinom: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except Exception as exc:
        # exit 1 belongs to a verify mismatch, so no stray exception may reach it
        if isinstance(exc, BrokenPipeError):
            # the unwritten lines stay buffered: send them to devnull, so the
            # interpreter's exit-time flush does not fail a second time
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"frobinom: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return code


if __name__ == "__main__":
    sys.exit(main())
