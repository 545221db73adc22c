#!/usr/bin/env bash
# The checks CI runs after tier-1, one function per workflow step, so that
# they also run by hand from a checkout with no network:
#
#     bash ci/checks.sh                      # every step, in workflow order
#     bash ci/checks.sh malformed_input ...  # the named steps
#
# Each step exits nonzero with a message on the first check that fails.
set -e
cd "$(dirname "$0")/.."

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# a temporary directory of the step's own, removed on exit
step_tmp() { mktemp -d -p "$work"; }

recdet() { PYTHONPATH=src python -m recdet.cli "$@"; }

# bench exits 3 when fast, Bareiss and Laplace disagree on the
# determinants of its timed passes, which run with bits off as users
# do: the int kernels, the Horner order and Bareiss's row recurrence,
# and for the poly ring all three over the cells packed into ints up
# to the packing's width gate. Past it a matrix has no kernel form:
# fast runs the ring recurrence and Bareiss its row recurrence, both
# over ring values. Sizes 1 to 5 are the packed route's edge cases
# (one cell, one step, the first and the last pivot close together).
# Size 40 is past Laplace's limit, so there fast and Bareiss check
# each other alone on a dense upper-Hessenberg matrix.
# The third run's sizes straddle the gate of 320 bits: B is 116, 188
# and 302 at sizes 20, 30 and 45, which run packed, and 344 and 427 at
# 50 and 60, which run past the gate (size 90's tracked Bareiss pass
# alone would take about 45 s).
# Each method's second pass tracks bits, which runs every ring path
# and Laplace's memo on its observing path
determinant_agreement() {
  recdet bench --ring poly --sizes 1,2,3,4,5,6,7,8,40 --methods fast,bareiss,laplace --seed 42
  recdet bench --ring rational --sizes 6,7,8,40 --methods fast,bareiss,laplace --seed 42
  recdet bench --ring poly --sizes 20,30,45,50,60 --methods fast,bareiss --seed 42
}

# bench's random matrices and det-crosscheck's are integral or
# polynomial, so this is the one step that runs Bareiss's row
# recurrence on fractional Theorem-1 matrices; ode-example
# (a(2) = a(3) = 0) takes every leading minor past its zero pivots
# from the one pass. n = 150 is the top of verify-rational's range.
# verify by the fast method reads the compiled specs' rows as scaled
# ints from the vector form, with no matrix, and Bareiss builds the
# matrix from the same row table by calls, so the two reports must
# be the same bytes. The report writes its JSON line in one pass;
# each line must be the bytes of compact json.dumps of itself. A
# copy of fibonacci-num named with a non-ASCII letter, a space and
# quotes runs the escaping of the spec name
verify_shipped_by_bareiss() {
  local compact odd f bareiss fast
  compact='import json, sys; line = sys.stdin.read().rstrip("\n"); sys.exit(line != json.dumps(json.loads(line), separators=(",", ":")))'
  odd=$(step_tmp)
  cp src/recdet/specs/fibonacci-num.rec "$odd/fïb \"q\".rec"
  for f in src/recdet/specs/*.rec "$odd"/*.rec; do
    bareiss=$(recdet verify "$f" --max-n 150 --method bareiss --format json) || { echo "verify --method bareiss failed on $f"; exit 1; }
    fast=$(recdet verify "$f" --max-n 150 --format json) || { echo "verify failed on $f"; exit 1; }
    [ "$fast" = "$bareiss" ] || { echo "verify by the fast method and by Bareiss print different JSON on $f"; exit 1; }
    printf '%s\n' "$fast" | python -c "$compact" || { echo "verify's JSON line on $f is not compact json.dumps"; exit 1; }
  done
}

# family by the fast method reads the band columns from the spec
# with no matrix; the polynomial families' come as int coefficient
# lists from the catalog's columns (families._COLUMNS), the only
# lists the leading minors take. The oracle check (exit 3 on a
# mismatch) holds it to each family's own recurrence. The polynomial
# families also run at n = 300, past n = 150's degrees and Legendre
# and Laguerre denominators, printed as JSON and as LaTeX. verify on
# a family name takes the same columns for its determinants by the
# fast method and Theorem 1's matrix by Bareiss, so the two reports
# must be the same bytes
family_against_oracles() {
  local name format bareiss fast
  for name in naturals fibonacci-poly fibonacci-num lucas-poly chebyshev-t chebyshev-u hermite legendre laguerre ode-example; do
    recdet family "$name" --n 150 --format json > /dev/null || { echo "family $name --n 150 failed"; exit 1; }
  done
  for name in fibonacci-poly lucas-poly chebyshev-t chebyshev-u hermite legendre laguerre; do
    for format in json latex; do
      recdet family "$name" --n 300 --format "$format" > /dev/null || { echo "family $name --n 300 --format $format failed"; exit 1; }
    done
  done
  for name in fibonacci-poly lucas-poly chebyshev-t chebyshev-u hermite legendre laguerre; do
    bareiss=$(recdet verify "$name" --max-n 100 --method bareiss --format json) || { echo "verify --method bareiss failed on $name"; exit 1; }
    fast=$(recdet verify "$name" --max-n 100 --format json) || { echo "verify failed on $name"; exit 1; }
    [ "$fast" = "$bareiss" ] || { echo "verify by the fast method and by Bareiss print different JSON on $name"; exit 1; }
  done
}

# a library caller passes matrix JSON to matrix_from_json: the
# printed matrix of every shipped spec and every family that takes no
# coefficient list (matrix and eval have no --params) at k = 8 and
# k = 30, parsed back, must give by the fast method and by Bareiss,
# and by Laplace up to its size limit, the value eval prints,
# a(1) * det = a(k + 1) for a full-history spec and det = a(k) for a
# fixed-order one. So the k = 8 round trip runs Laplace's loop
# untracked on ring values. These matrices hold the cells det-crosscheck
# never draws: fractional and constant polynomial cells, zero cells in
# the band, and Fraction cells in a poly matrix, such as the -1s of
# the subdiagonal. Such a matrix has no kernel form, so Bareiss keeps
# its ring path there, and the fast method runs the ring recurrence
# from the first column that holds a Polynomial (the rational ones
# scale their columns to ints). The seven three-term polynomial
# families also run at k = 150, where that recurrence reads
# Legendre's and Laguerre's fractional cells. The division of list
# minors by what their scales share is reached only through family,
# at n = 300 (family_against_oracles). Each round trip runs on each
# Python from 3.10 to 3.13 on PATH, the CLI calls and the check alike
# (see each_python)
library_round_trip() {
  local tmp
  tmp=$(step_tmp)
  each_python round_trips
}

# every round trip of library_round_trip under $py
round_trips() {
  local spec
  for spec in src/recdet/specs/*.rec naturals fibonacci-poly fibonacci-num lucas-poly chebyshev-t chebyshev-u hermite legendre laguerre ode-example; do
    round_trip "$spec" 8
    round_trip "$spec" 30
  done
  for spec in fibonacci-poly lucas-poly chebyshev-t chebyshev-u hermite legendre laguerre; do
    round_trip "$spec" 150
  done
}

# library_round_trip's check of the matrix JSON of SPEC at k = K under
# $py, in the step's $tmp
round_trip() {
  local spec=$1 k=$2
  PYTHONPATH=src "$py" -m recdet.cli matrix "$spec" --k "$k" --format json > "$tmp/matrix.json" || { echo "matrix $spec --k $k failed on $py"; exit 1; }
  PYTHONPATH=src "$py" -m recdet.cli eval "$spec" --n $((k + 1)) > "$tmp/eval" || { echo "eval $spec --n $((k + 1)) failed on $py"; exit 1; }
  PYTHONPATH=src "$py" - "$spec" "$k" "$tmp/matrix.json" "$tmp/eval" <<'EOF' || { echo "the matrix JSON of $spec at k = $k does not give eval's value on $py"; exit 1; }
import json
import sys
from pathlib import Path

from recdet import FamilyId, FullHistorySpec, det_bareiss, det_hessenberg_fast, dsl, family_spec
from recdet import LAPLACE_SIZE_LIMIT, det_laplace, matrix_from_json, parse_value

token, k, matrix, terms = sys.argv[1:]
k = int(k)
if Path(token).is_file():
    spec = dsl.to_spec(dsl.parse(Path(token).read_text(encoding="utf-8")))
else:
    spec = family_spec(FamilyId(token))
text = Path(matrix).read_text(encoding="utf-8")
m = matrix_from_json(text)
ring = json.loads(text)["ring"]
a = [parse_value(line.split(": ", 1)[1], ring) for line in Path(terms).read_text().splitlines()]
fast, bareiss = det_hessenberg_fast(m), det_bareiss(m)
laplace = det_laplace(m) if m.size <= LAPLACE_SIZE_LIMIT else fast
full = isinstance(spec, FullHistorySpec)
agree = fast == bareiss == laplace
sys.exit(0 if agree and (a[0] * fast if full else fast) == a[k if full else k - 1] else 1)
EOF
}

# eval reads a banded full-history spec within its band: row k
# multiplies the last min(k, b + 1) terms, by direct iteration over
# those windows, while family takes the leading minors of the band
# columns. So lines 2..301 of eval, a(2)..a(301), must be family's
# values for n = 1..300, value for value; naturals declares no band
# and reads whole rows
eval_against_band_minors() {
  local tmp name
  tmp=$(step_tmp)
  for name in naturals fibonacci-poly fibonacci-num lucas-poly chebyshev-t chebyshev-u hermite legendre laguerre; do
    recdet eval "$name" --n 301 > "$tmp/eval" || { echo "eval $name --n 301 failed"; exit 1; }
    recdet family "$name" --n 300 --no-check > "$tmp/family" || { echo "family $name --n 300 failed"; exit 1; }
    tail -n +2 "$tmp/eval" | cut -d ' ' -f 2- > "$tmp/eval.values"
    cut -d ' ' -f 2- "$tmp/family" > "$tmp/family.values"
    [ "$(wc -l < "$tmp/family.values")" -eq 300 ] || { echo "family $name --n 300 printed no 300 values"; exit 1; }
    cmp -s "$tmp/eval.values" "$tmp/family.values" || { echo "eval $name --n 301 and family $name --n 300 differ:"; diff "$tmp/eval.values" "$tmp/family.values" | head; exit 1; }
  done
}

# denominators that depend on the row make the scales outgrow the
# values past row 79: by the fast method the leading minors' int
# kernel hands over to its ring path and goes on from the columns
# it has, direct iteration's starts again from the terms it has,
# and Bareiss builds the matrix, so the two reports must be the
# same bytes.  Both kernels hold each value as an int pair (A, T)
# until it goes to a ring loop; with a(1) = -2/3 the determinant
# side scales its values by a(1), and the report compares them with
# the pairs direct iteration holds after starting again.
verify_row_dependent() {
  local tmp initial bareiss fast
  tmp=$(step_tmp)
  for initial in 1 -2/3; do
    printf 'mode = full-history\nring = rational\ninitial = %s\ncoeff p(k, i) = (k - i + 1)/(k + 2*i) - 1/3\n' "$initial" > "$tmp/row-dependent.rec"
    bareiss=$(recdet verify "$tmp/row-dependent.rec" --max-n 120 --method bareiss --format json) || { echo "verify --method bareiss failed on the row-dependent spec, initial = $initial"; exit 1; }
    fast=$(recdet verify "$tmp/row-dependent.rec" --max-n 120 --format json) || { echo "verify failed on the row-dependent spec, initial = $initial"; exit 1; }
    [ "$fast" = "$bareiss" ] || { echo "verify by the fast method and by Bareiss print different JSON on the row-dependent spec, initial = $initial"; exit 1; }
  done
}

# a full-history coefficient that factors as h(k) * g(i) runs, by
# the fast method, as two O(n) running sums, one per side, while
# Bareiss builds Theorem 1's matrix from p(k, i) by calls, so the
# two must print the same bytes, exit code and stderr included:
# powers-of-two's p = 1, a generated verify-rational shape with
# a(1) = -2/3, 1/k, and i/(k - 7), whose h has a zero denominator
# past the parse-time probe, so that both fall back to the general
# path and exit 2 at k = 7
verify_factored() {
  local tmp f method code
  tmp=$(step_tmp)
  cp src/recdet/specs/powers-of-two.rec "$tmp/"
  printf 'mode = full-history\nring = rational\ninitial = -2/3\ncoeff p(k, i) = (2*i - 1)/(k + 3)\n' > "$tmp/generated.rec"
  printf 'mode = full-history\nring = rational\ninitial = 1\ncoeff p(k, i) = 1/k\n' > "$tmp/one-over-k.rec"
  printf 'mode = full-history\nring = rational\ninitial = 1\ncoeff p(k, i) = i/(k - 7)\n' > "$tmp/vanishing.rec"
  for f in "$tmp"/*.rec; do
    for method in fast bareiss; do
      code=0
      recdet verify "$f" --max-n 150 --method "$method" --format json > "$tmp/$method.out" 2>&1 || code=$?
      echo "exit $code" >> "$tmp/$method.out"
    done
    cmp -s "$tmp/fast.out" "$tmp/bareiss.out" || { echo "verify by the fast method and by Bareiss differ on $f:"; cat "$tmp/fast.out" "$tmp/bareiss.out"; exit 1; }
    case "$f" in
      */vanishing.rec) grep -qx 'exit 2' "$tmp/fast.out" || { echo "verify of $f did not exit 2"; exit 1; } ;;
      *) grep -qx 'exit 0' "$tmp/fast.out" || { echo "verify failed on $f"; cat "$tmp/fast.out"; exit 1; } ;;
    esac
  done
}

# from Python 3.11 on, str() refuses an int of more than
# sys.get_int_max_str_digits() digits (4,300 by default); a value
# that long exits 2 with one error line, not a traceback:
# 2^14299, the last value of powers-of-two at max-n 14300, and
# Fibonacci's F(21000)
digit_limit() {
  local tmp args code
  python -c 'import sys; sys.exit(not hasattr(sys, "get_int_max_str_digits"))' || { echo "no digit limit on this Python"; return 0; }
  tmp=$(step_tmp)
  for args in "verify src/recdet/specs/powers-of-two.rec --max-n 14300" "eval src/recdet/specs/fibonacci-num.rec --n 21000"; do
    code=0
    # shellcheck disable=SC2086  # args holds several words
    recdet $args > /dev/null 2> "$tmp/err" || code=$?
    [ "$code" -eq 2 ] && [ "$(wc -l < "$tmp/err")" -eq 1 ] && grep -q '^error: .*more than [0-9]* digits' "$tmp/err" || { echo "recdet $args exited $code with stderr:"; cat "$tmp/err"; exit 1; }
  done
}

# a real process refuses malformed input with its exit code and an
# "error:" line on stderr, never a traceback: exit 1 for a syntax
# error, a semantic error, a file that is not UTF-8, a literal past
# the DSL's own limit of 4,300 digits (dsl.MAX_LITERAL_DIGITS, the same
# on every Python), and a line holding a superscript two, a
# vertical tab or a no-break space (the lexer skips only space, tab
# and CR and takes ASCII digits only, and str.splitlines ends a line
# at a vertical tab), and for a bench size below 1; exit 2 for an
# evaluation error, for a dense matrix past hessenberg.MAX_MATRIX_SIZE
# (2000), refused before any row is built, and for an eval or family
# --n past cli.MAX_TERMS, refused before any term is computed
malformed_input() {
  local tmp head f past
  tmp=$(step_tmp)
  printf 'mode = fixed-order\n# caf\xe9\n' > "$tmp/latin1.rec"
  python -c "print('mode = fixed-order\nring = rational\norder = 1\ninitial = [1]\ncoeff p1(k) = ' + '9' * 5000)" > "$tmp/long.rec"
  head='mode = fixed-order\nring = rational\norder = 1\ninitial = [1]\n'
  printf "${head}coeff p1(k) = 2\xc2\xb2\n" > "$tmp/superscript.rec"
  printf "${head}coeff p1(k) = k +\v1\n" > "$tmp/vtab.rec"
  printf "${head}coeff p1(k) = k +\xc2\xa01\n" > "$tmp/nbsp.rec"
  python -c "print('${head}coeff p1(k) = ' + ' + '.join(['k'] * 1000))" > "$tmp/long-sum.rec"
  python -c "print('${head}coeff p1(k) = ' + '(' * 400 + 'k' + ')' * 400)" > "$tmp/deep-parens.rec"
  expect() {
    local want=$1 code=0 ok
    shift
    recdet "$@" > /dev/null 2> "$tmp/err" || code=$?
    case "$(cat "$tmp/err")" in error:*) ok=1 ;; *) ok=0 ;; esac
    [ "$code" -eq "$want" ] && [ "$ok" -eq 1 ] || { echo "recdet $* exited $code (want $want) with stderr:"; cat "$tmp/err"; exit 1; }
  }
  for f in src/recdet/specs/negative/bad-syntax.rec src/recdet/specs/negative/bad-semantic.rec "$tmp/latin1.rec" "$tmp/long.rec" "$tmp/superscript.rec" "$tmp/vtab.rec" "$tmp/nbsp.rec"; do
    expect 1 eval "$f" --n 3
  done
  # past the DSL's token limit: one error line, where the parser's
  # recursion once ended in a traceback
  for f in "$tmp/long-sum.rec" "$tmp/deep-parens.rec"; do
    expect 1 eval "$f" --n 3
    [ "$(wc -l < "$tmp/err")" -eq 1 ] && ! grep -q Traceback "$tmp/err" || { echo "recdet eval $f wrote more than one error line:"; cat "$tmp/err"; exit 1; }
  done
  expect 2 eval src/recdet/specs/negative/bad-eval.rec --n 12
  expect 2 bench --sizes 2001
  expect 2 matrix fibonacci-num --k 2001
  expect 1 bench --sizes 0
  past=$(PYTHONPATH=src python -c 'from recdet.cli import MAX_TERMS; print(MAX_TERMS + 1)')
  expect 2 family fibonacci-num --n "$past"
  expect 2 eval naturals --n "$past"
}

# verify's determinant side and direct side read one row table; a
# corrupted cell changes the matrix built from it, not the table,
# so it reaches the determinant side only and every shipped spec
# must fail (exit 3). Cell (1, 1) is in every spec's band: a(1) of
# a fixed-order spec, p(1, 1) of a full-history one
corrupt_negative_control() {
  local f code
  for f in src/recdet/specs/*.rec; do
    code=0
    recdet verify "$f" --max-n 12 --corrupt 1,1 > /dev/null || code=$?
    [ "$code" -eq 3 ] || { echo "verify --corrupt 1,1 exited $code, not 3, on $f"; exit 1; }
  done
}

# run the function named by $1 once under each python3.10 to python3.13
# on PATH, which it reads as $py; an interpreter that is not on PATH or
# does not start is named as missing, and at least one must run
each_python() {
  local v py ran=0
  for v in 3.10 3.11 3.12 3.13; do
    py=python$v
    if ! "$py" -c pass > /dev/null 2>&1; then
      echo "$py: missing"
      continue
    fi
    echo "$py:"
    "$1"
    ran=$((ran + 1))
  done
  [ "$ran" -gt 0 ] || { echo "no python3.10 to python3.13 ran $1"; exit 1; }
}

# the contract battery (tests/contract.py) imports no pytest, so it runs
# on each Python from 3.10 to 3.13 on PATH, with or without pytest, and
# must match every golden record on each (see each_python)
contract_each_python() {
  each_python contract_battery
}

contract_battery() {
  PYTHONDONTWRITEBYTECODE=1 "$py" tests/contract.py || { echo "the contract battery failed on $py"; exit 1; }
}

# a command imports only the modules it runs: the catalog commands
# import no recdet.dsl, and a spec file's verify does. These are real
# processes through python -m, the route in-process tests cannot reach,
# logged by -X importtime. Each recdet module's self time on the spec
# file's verify is printed, once with no bytecode cache (every module
# compiled, as a checkout run with PYTHONDONTWRITEBYTECODE=1 is) and
# once from a cache in a PYTHONPYCACHEPREFIX of the step's own; no time
# is asserted
cold_start() {
  local tmp args cache
  tmp=$(step_tmp)
  cache="$tmp/pycache"
  logged() {  # recdet ARGS... under -X importtime, its log in $tmp/log
    PYTHONPATH=src python -X importtime -m recdet.cli "$@" > /dev/null 2> "$tmp/log" || { echo "recdet $* failed:"; cat "$tmp/log"; exit 1; }
  }
  imports_dsl() { grep -q '| *recdet\.dsl$' "$tmp/log"; }
  self_times() {
    echo "$1, self time of each recdet module (us):"
    awk -F'|' '$3 ~ /^ *recdet/ { sub(/^import time: */, "", $1); sub(/^ */, "", $3); printf "  %-18s %7d\n", $3, $1 }' "$tmp/log"
  }
  for args in "family legendre --n 3" "verify legendre --max-n 3" "eval chebyshev-t --n 3"; do
    # shellcheck disable=SC2086  # args holds several words
    PYTHONDONTWRITEBYTECODE=1 PYTHONPYCACHEPREFIX="$tmp/none" logged $args
    ! imports_dsl || { echo "recdet $args imported recdet.dsl"; exit 1; }
  done
  args="verify src/recdet/specs/naturals.rec --max-n 3"
  # shellcheck disable=SC2086
  PYTHONDONTWRITEBYTECODE=1 PYTHONPYCACHEPREFIX="$tmp/none" logged $args
  imports_dsl || { echo "recdet $args did not import recdet.dsl"; exit 1; }
  self_times "no bytecode cache"
  (
    # the first run writes the cache, the second reads it
    unset PYTHONDONTWRITEBYTECODE
    # shellcheck disable=SC2086
    PYTHONPYCACHEPREFIX="$cache" logged $args
    # shellcheck disable=SC2086
    PYTHONPYCACHEPREFIX="$cache" logged $args
    self_times "from a bytecode cache"
  )
}

# one short benchmark run per workload, untraced and traced; its last
# line must say "correct": true. A traced chain that prints other bytes
# than cli.main counts as a failed job, so "correct" also gates the
# tracing's fidelity
benchmark_smoke() {
  local trace workload out
  for trace in 0 1; do
    for workload in det-crosscheck verify-rational family-poly; do
      out=$(python3 benchmarks/run.py --workload "$workload" --seed 1 --seconds 1 --trace "$trace")
      echo "$out"
      echo "$out" | tail -n 1 | python3 -c 'import json, sys; sys.exit(0 if json.load(sys.stdin)["correct"] is True else 1)' || { echo "benchmark $workload --trace $trace was not correct"; exit 1; }
    done
  done
}

STEPS=(
  determinant_agreement
  verify_shipped_by_bareiss
  family_against_oracles
  library_round_trip
  eval_against_band_minors
  verify_row_dependent
  verify_factored
  digit_limit
  malformed_input
  corrupt_negative_control
  contract_each_python
  cold_start
  benchmark_smoke
)

[ $# -gt 0 ] || set -- "${STEPS[@]}"
for step in "$@"; do
  case " ${STEPS[*]} " in
    *" $step "*) ;;
    *) echo "unknown step $step; steps: ${STEPS[*]}"; exit 1 ;;
  esac
  echo "== $step"
  "$step"
done
