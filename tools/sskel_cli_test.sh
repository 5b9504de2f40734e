#!/bin/sh
# End-to-end checks of the sskel CLI and its SSKT trace files.
#
#   sskel_cli_test.sh PART SSKEL SSKEL_TRACE WORK_DIR
#
# PART is one of
#   bad-flags      flags the run cannot honour exit 2 (usage), never
#                  abort;
#   empty-trace    a valid trace without graph frames makes replay and
#                  analyze exit 1;
#   record-replay  run --record -> replay prints the same report, and
#                  analyze and sskel_trace dump accept the file.
set -u
part=$1
sskel=$2
sskel_trace=$3
work=$4/$part
mkdir -p "$work" || exit 1
failures=0

fail() {
  echo "FAIL: $*"
  failures=$((failures + 1))
}

expect_exit() {
  want=$1
  shift
  "$@" > "$work/out.txt" 2>&1
  got=$?
  if [ "$got" -ne "$want" ]; then
    fail "exit $got (want $want): $*"
    cat "$work/out.txt"
  fi
}

bad_flags() {
  expect_exit 2 "$sskel" run --n=0
  expect_exit 2 "$sskel" run --k=0
  expect_exit 2 "$sskel" run --n=-3
  expect_exit 2 "$sskel" run --adversary=partition --n=3 --k=5
  expect_exit 2 "$sskel" run --adversary=impossibility --n=4 --k=9
  expect_exit 2 "$sskel" run --adversary=random --n=4 --k=3 --roots=4
  expect_exit 2 "$sskel" run --noise=1.5
  expect_exit 2 "$sskel" replay --file="$work/none.sskt" --k=0
}

empty_trace() {
  # A header-only trace: magic "SSKT", version 1, a header frame (n = 1,
  # simulator, seed 0, D = 0) and the end frame.
  printf 'SSKT\001\001\004\001\000\000\000\007\000' > "$work/empty.sskt"
  expect_exit 0 "$sskel_trace" dump --file="$work/empty.sskt"
  expect_exit 1 "$sskel" replay --file="$work/empty.sskt"
  expect_exit 1 "$sskel" analyze --file="$work/empty.sskt"
}

record_replay() {
  trace="$work/run.sskt"
  "$sskel" run --adversary=random --n=9 --k=3 --seed=5 --record="$trace" \
    > "$work/run.txt" 2>&1 || fail "run --record exited $?"
  "$sskel" replay --file="$trace" --k=3 > "$work/replay.txt" 2>&1 ||
    fail "replay exited $?"
  grep -v '^recorded ' "$work/run.txt" > "$work/run_report.txt"
  if ! cmp -s "$work/run_report.txt" "$work/replay.txt"; then
    fail "replay report differs from the recorded run"
    diff "$work/run_report.txt" "$work/replay.txt"
  fi
  grep -q '^recorded [1-9][0-9]* rounds to ' "$work/run.txt" ||
    fail "run --record did not report the recorded rounds"
  expect_exit 0 "$sskel" analyze --file="$trace"
  grep -q '^capture: [1-9][0-9]* rounds, n = 9$' "$work/out.txt" ||
    fail "analyze did not read the recorded graphs"
  expect_exit 0 "$sskel_trace" dump --file="$trace"
  grep -q '^header: n=9 source=simulator seed=5 ' "$work/out.txt" ||
    fail "dump did not show the stamped seed"
}

case $part in
  bad-flags) bad_flags ;;
  empty-trace) empty_trace ;;
  record-replay) record_replay ;;
  *) echo "unknown part: $part"; exit 2 ;;
esac

if [ "$failures" -ne 0 ]; then
  echo "$failures check(s) failed"
  exit 1
fi
echo "sskel CLI $part: all checks passed"
