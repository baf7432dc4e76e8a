#!/bin/sh
# safcc, safcc-fuzz and reproduce parse their command lines through one flag
# table (src/driver/run_options.hpp), so each answers every case in the same
# words: both value forms work, --help exits 0, and a malformed argument exits
# 2 with `<prog>: ...`.
#
# usage: cli_flags_parse_alike.sh SAFCC SAFCC_FUZZ REPRODUCE SOURCE_DIR
safcc=$1
fuzz=$2
reproduce=$3
quickstart=$4/examples/quickstart.acc
status=0

# expect STATUS PATTERN COMMAND...: COMMAND exits STATUS and a line of its
# stdout or stderr matches PATTERN.
expect() {
  want=$1
  pattern=$2
  shift 2
  out=$("$@" 2>&1)
  got=$?
  if [ "$got" -eq "$want" ] && printf '%s\n' "$out" | grep -q -- "$pattern"; then
    echo "ok: $*"
  else
    echo "FAIL: $* exited $got (want $want), output:"
    printf '%s\n' "$out" | head -3
    status=1
  fi
}

expect 0 'safcc-fuzz: 0 program(s)' "$fuzz" --seed=7 --count=0
expect 0 '^=== Table I' "$reproduce" --only=table1
expect 0 "^safcc: compiled 1 kernel(s) from 'blur'" "$safcc" "$quickstart" --max-regs=64

expect 2 "^safcc: missing value for '--metrics-out'$" "$safcc" "$quickstart" --metrics-out=
expect 2 "^safcc-fuzz: missing value for '--count'$" "$fuzz" --count
expect 2 "^reproduce: missing value for '--json'$" "$reproduce" --json=

expect 2 "^safcc: --max-regs expects an integer, got 'x'$" "$safcc" "$quickstart" --max-regs=x
expect 2 "^safcc: --config expects one of base, small, small_dim, safara, safara_clauses, pgi, got 'nosuch'$" \
  "$safcc" "$quickstart" --config nosuch
expect 2 "^safcc-fuzz: --count expects an integer in \[0, 2147483647\], got '-1'$" "$fuzz" --count=-1
expect 2 "^reproduce: --grid-threads expects an integer, got 'x'$" "$reproduce" --grid-threads x

for bin in "$safcc" "$fuzz" "$reproduce"; do
  prog=$(basename "$bin")
  expect 0 "^usage: $prog " "$bin" --help
  expect 0 "^usage: $prog " "$bin" -h
  expect 2 "^$prog: unknown argument '--bogus'$" "$bin" --bogus
done

# --fn picks a function of a file input; a workload names its own.
expect 2 '^safcc: --workload cannot be combined with --fn$' \
  "$safcc" --workload 303.ostencil --fn nosuch --config base
exit $status
