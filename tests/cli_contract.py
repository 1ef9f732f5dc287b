"""The command line's contract as one table: each row is a call and what it
must give.

A row holds `argv` (the arguments, split on spaces), the `exit` code, and
one or more expectations:

- `stdout`: the exact text on stdout;
- `lines`: whole lines that must appear on stdout, for long outputs;
- `result`: the exact `result` of a `--format json` envelope (`timing_ms`
  and the rest of the envelope are not compared);
- `stderr`: the exact text on stderr.

`tests/test_cli.py` runs every row in-process through `frobinom.cli.main`,
and `README.md`'s "Command line" examples must each be a row.  Run as a
script, the module runs every row through the command named by its
arguments, prints one line per failing row and exits 1 if any row fails:

    python tests/cli_contract.py frobinom
    PYTHONPATH=src python tests/cli_contract.py python -m frobinom.cli
"""

import json
import subprocess
import sys

# the nine fields verify compares for each n, in the order it prints them
ORACLE_FIELDS = ("apery_set", "embedding_dimension", "frobenius", "genus", "minimal_generators",
                 "pseudo_frobenius", "symmetric", "telescopic", "type")
ARITHMETIC_ROWS = """\
PASS  pascal recurrence and symmetry, n <= 60
PASS  carry count = divide-out valuation = floor-sum formula, n <= 60
PASS  product tree = math.comb at the dispatch thresholds, n <= 10^4
PASS  binomial residue congruence on its provable domain, n <= 300
PASS  prime-power quotient congruence (a >= 1 for p = 2), p in 2..7, m <= 12
PASS  gcd of binomial family: p for prime powers else 1, n <= 200
all checks passed
"""
PRIME_POWER_REFUSAL = ("frobinom: n = 8 is a prime power; its Apery base is 2**2, not n. "
                       "Pass force_base=True (--force-base) to run against that base\n")
# multiplicity 10^6 with seven distinct generators, one over the engine budget
OVER_BUDGET = " ".join(str(10**6 + i) for i in range(7))
ENGINE_BUDGET_REFUSAL = ("frobinom: error: multiplicity 1000000 x 7 distinct generators = "
                         "7000000 exceeds the engine budget 6000000\n")
TOP_USAGE = ("usage: frobinom [--format {text,json}] "
             "{report,semigroup,decompose,core,admissible,verify} ...\n")

CASES = [
    # report: the closed forms of S(B_n)
    dict(argv="report 12", exit=0, stderr="", stdout="""\
n                   12
factorization       2^2 * 3
scale               1
minimal generators  [12, 66, 220, 495]
embedding dimension 4
apery base          12
apery set           [0, 66, 220, 286, 440, 495, 506, 561, 715, 781, 935, 1001]
frobenius           989
genus               495
pseudo-frobenius    [989]
type                1
symmetric           true
telescopic          true
"""),
    dict(argv="report 9", exit=0, stderr="", stdout="""\
n                   9
factorization       3^2
scale               3
minimal generators  [3, 28]
embedding dimension 2
apery base          3
apery set           [0, 28, 56]
frobenius           53
genus               27
pseudo-frobenius    [53]
type                1
symmetric           true
telescopic          true
"""),
    dict(argv="report 50", exit=0, stderr="", lines=[
        "minimal generators  [50, 1225, 2118760, 126410606437752]",
        "frobenius           505642434227223",
        "genus               252821217113612"]),
    # every key of the result, so no field of the record comes or goes unseen
    dict(argv="report 9 --format json", exit=0, stderr="", result={
        "n": "9", "factorization": [["3", "2"]], "scale": "3",
        "minimal_generators": ["3", "28"], "embedding_dimension": "2",
        "apery_base": "3", "apery_box": {"base": "3", "generators": [["28", "3"]]},
        "apery_set": ["0", "28", "56"], "frobenius": "53", "genus": "27",
        "pseudo_frobenius": ["53"], "type": "1", "symmetric": True, "telescopic": True}),
    dict(argv="report 30 --format json", exit=0, stderr="", result={
        "n": "30", "factorization": [["2", "1"], ["3", "1"], ["5", "1"]], "scale": "1",
        "minimal_generators": ["30", "435", "4060", "142506"],
        "embedding_dimension": "4", "apery_base": "30",
        "apery_box": {"base": "30",
                      "generators": [["435", "2"], ["4060", "3"], ["142506", "5"]]},
        "apery_set": [
            "0", "435", "4060", "4495", "8120", "8555", "142506", "142941", "146566",
            "147001", "150626", "151061", "285012", "285447", "289072", "289507",
            "293132", "293567", "427518", "427953", "431578", "432013", "435638",
            "436073", "570024", "570459", "574084", "574519", "578144", "578579"],
        "frobenius": "578549", "genus": "289275", "pseudo_frobenius": ["578549"],
        "type": "1", "symmetric": True, "telescopic": True}),
    # the box whose value order is not its coordinate order: 66 + 2 * 220 > 495
    dict(argv="report 12 --format json", exit=0, stderr="", result={
        "n": "12", "factorization": [["2", "2"], ["3", "1"]], "scale": "1",
        "minimal_generators": ["12", "66", "220", "495"], "embedding_dimension": "4",
        "apery_base": "12",
        "apery_box": {"base": "12", "generators": [["66", "2"], ["220", "3"], ["495", "2"]]},
        "apery_set": ["0", "66", "220", "286", "440", "495", "506", "561", "715", "781",
                      "935", "1001"],
        "frobenius": "989", "genus": "495", "pseudo_frobenius": ["989"], "type": "1",
        "symmetric": True, "telescopic": True}),
    # --format may come before the command
    dict(argv="--format json report 6", exit=0, stderr="", result={
        "n": "6", "factorization": [["2", "1"], ["3", "1"]], "scale": "1",
        "minimal_generators": ["6", "15", "20"], "embedding_dimension": "3",
        "apery_base": "6", "apery_box": {"base": "6", "generators": [["15", "2"], ["20", "3"]]},
        "apery_set": ["0", "15", "20", "35", "40", "55"], "frobenius": "49", "genus": "25",
        "pseudo_frobenius": ["49"], "type": "1", "symmetric": True, "telescopic": True}),
    dict(argv="report 7", exit=2, stdout="", stderr=(
        "frobinom: n = 7 is prime: the scaled binomial family generates all of N, "
        "so the closed forms do not apply\n")),
    dict(argv="report 1000001", exit=64, stdout="",
         stderr="frobinom: error: n = 1000001 exceeds the CLI bound 1000000\n"),
    dict(argv="report fifty", exit=64, stdout="", stderr=(
        "usage: frobinom report n [--format {text,json}]\n"
        "frobinom: error: invalid literal for int() with base 10: 'fifty'\n")),
    # an argument is read by int(): an underscore, a sign and any Unicode
    # decimal digits are a number, an exponent is not
    dict(argv="report 3_0", exit=0, stderr="", lines=["n                   30"]),
    dict(argv="report +30", exit=0, stderr="", lines=["n                   30"]),
    dict(argv="report ٣٠", exit=0, stderr="", lines=["n                   30"]),
    dict(argv="report 1e3", exit=64, stdout="", stderr=(
        "usage: frobinom report n [--format {text,json}]\n"
        "frobinom: error: invalid literal for int() with base 10: '1e3'\n")),

    # semigroup: the generic engine; <6, 15, 20> is telescopic, <5, 7, 9> is not
    dict(argv="semigroup 5 7 9", exit=0, stderr="", stdout="""\
minimal generators  [5, 7, 9]
multiplicity        5
apery base          5
apery set           [0, 7, 9, 16, 18]
frobenius           13
genus               8
gaps                [1, 2, 3, 4, 6, 8, 11, 13]
pseudo-frobenius    [11, 13]
type                2
symmetric           false
telescopic          false
"""),
    dict(argv="--format json semigroup 5 7 9", exit=0, stderr="", result={
        "minimal_generators": ["5", "7", "9"], "multiplicity": "5", "apery_base": "5",
        "apery_set": ["0", "7", "9", "16", "18"], "frobenius": "13", "genus": "8",
        "gaps": ["1", "2", "3", "4", "6", "8", "11", "13"], "pseudo_frobenius": ["11", "13"],
        "type": "2", "symmetric": False, "telescopic": False}),
    dict(argv="--format json semigroup 6 15 20", exit=0, stderr="", result={
        "minimal_generators": ["6", "15", "20"], "multiplicity": "6", "apery_base": "6",
        "apery_set": ["0", "15", "20", "35", "40", "55"], "frobenius": "49", "genus": "25",
        "gaps": ["1", "2", "3", "4", "5", "7", "8", "9", "10", "11", "13", "14", "16", "17",
                 "19", "22", "23", "25", "28", "29", "31", "34", "37", "43", "49"],
        "pseudo_frobenius": ["49"], "type": "1", "symmetric": True, "telescopic": True}),
    dict(argv="semigroup 6 15 20 --apery-base 15", exit=0, stderr="", stdout="""\
minimal generators  [6, 15, 20]
multiplicity        6
apery base          15
apery set           [0, 6, 12, 18, 20, 24, 26, 32, 38, 40, 44, 46, 52, 58, 64]
frobenius           49
genus               25
gaps                [1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 13, 14, 16, 17, 19, 22, 23, 25, 28, 29, 31, 34, 37, 43, 49]
pseudo-frobenius    [49]
type                1
symmetric           true
telescopic          true
"""),
    dict(argv="semigroup 1 --format json", exit=0, stderr="", result={
        "minimal_generators": ["1"], "multiplicity": "1", "apery_base": "1",
        "apery_set": ["0"], "frobenius": "-1", "genus": "0", "gaps": [],
        "pseudo_frobenius": ["-1"], "type": "1", "symmetric": True, "telescopic": True}),
    # S(B_50): the text view elides a genus above 1000
    dict(argv="semigroup 50 1225 2118760 126410606437752", exit=0, stderr="", lines=[
        "gaps                (252821217113612 gaps; min 1, max 505642434227223)"]),
    dict(argv="semigroup 4 6", exit=2, stdout="",
         stderr="frobinom: generators have gcd 2; a numerical semigroup requires gcd 1\n"),
    # the CLI bound and the engine budget (multiplicity or --apery-base times
    # distinct generators) are checked before the engine runs
    dict(argv="semigroup 1000001 1000002", exit=64, stdout="",
         stderr="frobinom: error: multiplicity 1000001 exceeds the CLI bound 1000000\n"),
    dict(argv="semigroup 5 7 --apery-base 1000001", exit=64, stdout="",
         stderr="frobinom: error: --apery-base 1000001 exceeds the CLI bound 1000000\n"),
    dict(argv="semigroup 5 6 7 8 9 10 11 --apery-base 1000000", exit=64, stdout="", stderr=(
        "frobinom: error: --apery-base 1000000 x 7 distinct generators = 7000000 "
        "exceeds the engine budget 6000000\n")),
    dict(argv=f"semigroup {OVER_BUDGET}", exit=64, stdout="", stderr=ENGINE_BUDGET_REFUSAL),

    # decompose: C(n, m) over the minimal system
    dict(argv="decompose 50 7", exit=0, stderr="", stdout="""\
target       C(50,7) = 99884400
basis        [50, 1225, 2118760, 126410606437752]
coefficients [1997688, 0, 0, 0]
identity     1997688*50 = 99884400
"""),
    dict(argv="--format json decompose 50 7", exit=0, stderr="", result={
        "n": "50", "m": "7", "basis": ["50", "1225", "2118760", "126410606437752"],
        "coefficients": ["1997688", "0", "0", "0"], "value": "99884400", "scaled": False,
        "binomial": "99884400"}),
    dict(argv="decompose 10 3 --format json", exit=0, stderr="", result={
        "n": "10", "m": "3", "basis": ["10", "45", "252"], "coefficients": ["12", "0", "0"],
        "value": "120", "scaled": False, "binomial": "120"}),
    dict(argv="decompose 6 3 --format json", exit=0, stderr="", result={
        "n": "6", "m": "3", "basis": ["6", "15", "20"], "coefficients": ["0", "0", "1"],
        "value": "20", "scaled": False, "binomial": "20"}),
    # a prime power: C(9, 2) = 36 is scaled by 3 onto the basis <3, 28>
    dict(argv="decompose 9 2 --format json", exit=0, stderr="", result={
        "n": "9", "m": "2", "basis": ["3", "28"], "coefficients": ["4", "0"], "value": "12",
        "scaled": True, "binomial": "36"}),
    dict(argv="decompose 10 10", exit=2, stdout="",
         stderr="frobinom: decompose(10, 10) requires n >= 2 and 1 <= m <= n-1\n"),

    # core: the text view ends with A(S); the JSON gives the hooks, the gaps
    # of A(S), once, and F once, as F(A(S)) = F(S)
    dict(argv="core --gaps 2 5 6 8", exit=0, stderr="", stdout="""\
frobenius  8
gaps       [2, 5, 6, 8]
partition  (5, 4, 4, 2)
hook set   [1, 2, 3, 4, 5, 6, 7, 8]
A(S)       {0, 9, ...}
"""),
    dict(argv="core --gaps 2 5 6 8 --format json", exit=0, stderr="", result={
        "frobenius": "8", "gaps": ["2", "5", "6", "8"], "partition": ["5", "4", "4", "2"],
        "hook_set": ["1", "2", "3", "4", "5", "6", "7", "8"]}),
    dict(argv="core --semigroup 5 7 9", exit=0, stderr="", stdout="""\
frobenius  13
gaps       [1, 2, 3, 4, 6, 8, 11, 13]
partition  (6, 5, 3, 2, 1, 1, 1, 1)
hook set   [1, 2, 3, 4, 6, 8, 11, 13]
A(S)       {0, 5, 7, 9, 10, 12, 14, ...}
"""),
    dict(argv="--format json core --semigroup 5 7 9", exit=0, stderr="", result={
        "frobenius": "13", "gaps": ["1", "2", "3", "4", "6", "8", "11", "13"],
        "partition": ["6", "5", "3", "2", "1", "1", "1", "1"],
        "hook_set": ["1", "2", "3", "4", "6", "8", "11", "13"]}),
    dict(argv="core --semigroup 1", exit=0, stderr="", stdout="""\
frobenius  -1
gaps       []
partition  ()
hook set   []
A(S)       {0, ...}
"""),
    dict(argv="core --gaps --format json", exit=0, stderr="", result={
        "frobenius": "-1", "gaps": [], "partition": [], "hook_set": []}),
    dict(argv="core --gaps 0 3", exit=2, stdout="",
         stderr="frobinom: gaps must be positive (0 always belongs to the set)\n"),
    dict(argv=f"core --semigroup {OVER_BUDGET}", exit=64, stdout="",
         stderr=ENGINE_BUDGET_REFUSAL),
    dict(argv="core --semigroup 1000001 1000002", exit=64, stdout="",
         stderr="frobinom: error: multiplicity 1000001 exceeds the CLI bound 1000000\n"),

    # admissible: the triple completion over the closed Apery set
    dict(argv="admissible 50 65 6", exit=0, stderr="", stdout="""\
triple  (379231827789565, 379231827789566, 379231827789571)
count   126410606437653
"""),
    dict(argv="admissible 50 65 6 --format json", exit=0, stderr="", result={
        "triple": ["379231827789565", "379231827789566", "379231827789571"],
        "count": "126410606437653"}),
    dict(argv="admissible 70 12 11 --format json", exit=0, stderr="", result={
        "triple": ["4831407922", "4831407923", "4831407933"], "count": "2409654789"}),
    # a prime power needs --force-base, and the refusal names the flag
    dict(argv="admissible 8 1 2", exit=2, stdout="", stderr=PRIME_POWER_REFUSAL),
    dict(argv="admissible 8 1 2 --format json", exit=2, stdout="", stderr=PRIME_POWER_REFUSAL),
    dict(argv="admissible 8 1 2 --force-base", exit=0, stderr="", stdout="""\
triple  (49, 14, 35)
count   11
"""),
    dict(argv="admissible 8 1 2 --force-base --format json", exit=0, stderr="", result={
        "triple": ["49", "14", "35"], "count": "11"}),
    dict(argv="admissible 6 1 6", exit=2, stdout="",
         stderr="frobinom: residues of (s, s+1, s+6) collide mod 6 for every s\n"),
    # a negative number is a value, so p = -5 reaches the command
    dict(argv="admissible 10 1 -5", exit=2, stdout="",
         stderr="frobinom: need p >= 2, got -5\n"),
    dict(argv="admissible 10 1 -5 --format json", exit=2, stdout="",
         stderr="frobinom: need p >= 2, got -5\n"),

    # verify: closed forms against the engine, then the arithmetic rows; the
    # default sweep is every composite n <= 30
    dict(argv="verify", exit=0, stderr="", stdout="".join(
        f"PASS  n={n} {field}\n" for n in range(4, 31) if any(n % d == 0 for d in range(2, n))
        for field in ORACLE_FIELDS) + ARITHMETIC_ROWS),
    dict(argv="verify --max-n 4", exit=0, stderr="",
         stdout="".join(f"PASS  n=4 {field}\n" for field in ORACLE_FIELDS) + ARITHMETIC_ROWS),
    dict(argv="verify --max-n 6", exit=0, stderr="", stdout="".join(
        f"PASS  n={n} {field}\n" for n in (4, 6) for field in ORACLE_FIELDS) + ARITHMETIC_ROWS),
    dict(argv="verify --max-n 30", exit=0, stderr="",
         lines=[f"PASS  n=30 {field}" for field in ORACLE_FIELDS] + ["all checks passed"]),
    # the sweep at the engine budget's reach passes every check; one more n
    # exceeds the budget, and below 4 no closed form would be checked
    dict(argv="verify --max-n 354", exit=0, stderr="",
         lines=[f"PASS  n=354 {field}" for field in ORACLE_FIELDS] + ["all checks passed"]),
    dict(argv="verify --max-n 355", exit=64, stdout="",
         stderr="frobinom: error: --max-n 355 exceeds the engine budget 6000000 at n=355\n"),
    # the sum stops at the first n past the budget, whatever max_n is
    dict(argv=f"verify --max-n {10**30}", exit=64, stdout="", stderr=(
        f"frobinom: error: --max-n {10**30} exceeds the engine budget 6000000 at n=355\n")),
    dict(argv="verify --max-n 3", exit=64, stdout="",
         stderr="frobinom: error: --max-n 3 is below 4, the least composite n\n"),
    dict(argv="verify --max-n 0", exit=64, stdout="",
         stderr="frobinom: error: --max-n 0 is below 4, the least composite n\n"),
    dict(argv="verify --max-n -5", exit=64, stdout="",
         stderr="frobinom: error: --max-n -5 is below 4, the least composite n\n"),

    # a command's options come after the command
    dict(argv="--max-n 4 verify", exit=64, stdout="",
         stderr=TOP_USAGE + "frobinom: error: unrecognized argument '--max-n'\n"),
    dict(argv="--force-base admissible 8 1 2", exit=64, stdout="",
         stderr=TOP_USAGE + "frobinom: error: unrecognized argument '--force-base'\n"),
]


def _shown(value):
    text = repr(value)
    return text if len(text) <= 200 else text[:200] + "..."


def check(case, code, stdout, stderr):
    """The ways a call's exit code and output miss its row, one line each."""
    problems = [] if code == case["exit"] else [f"exit: wanted {case['exit']}, got {code}"]
    for name, got in (("stdout", stdout), ("stderr", stderr)):
        if name in case and got != case[name]:
            problems.append(f"{name}: wanted {_shown(case[name])}, got {_shown(got)}")
    missing = set(case.get("lines", ())).difference(stdout.splitlines())
    if missing:
        problems.append(f"lines: wanted {_shown(sorted(missing))}, got {_shown(stdout)}")
    if "result" in case:
        try:
            result = json.loads(stdout)["result"]
        except (ValueError, TypeError, KeyError):
            result = "no JSON envelope"
        if result != case["result"]:
            problems.append(f"result: wanted {_shown(case['result'])}, got {_shown(result)}")
    return problems


def main(command):
    """Run every row through `command`, a list such as ["frobinom"]; 1 if any row fails."""
    failed = 0
    for case in CASES:
        argv = [*command, *case["argv"].split()]
        try:
            done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
            problems = check(case, done.returncode, done.stdout, done.stderr)
        except subprocess.TimeoutExpired as exc:
            problems = [f"no exit within {exc.timeout} s"]
        if problems:
            failed += 1
            print(f"{' '.join(argv)}: {'; '.join(problems)}")
    print(f"{failed} of {len(CASES)} rows failed" if failed else f"all {len(CASES)} rows passed")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: python tests/cli_contract.py COMMAND [ARG ...]")
    sys.exit(main(sys.argv[1:]))
