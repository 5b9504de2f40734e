#!/bin/sh
# End-to-end checks of the sskel_campaign CLI.
#
#   sskel_campaign_test.sh PART SSKEL_CAMPAIGN WORK_DIR
#
# PART is one of
#   bad-flags  integer flags outside their documented bounds (or not
#              integers at all) exit 2 with the usage text, never abort
#              or reach the engine; in-bounds values still run.
set -u
part=$1
campaign=$2
work=$3/$part
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

expect_usage() {
  expect_exit 2 "$@"
  grep -q '^usage: sskel_campaign' "$work/out.txt" ||
    fail "no usage text: $*"
}

bad_flags() {
  spec="$work/tiny.spec"
  printf 'k = 2\njob = partition n=4 m=2 seed=1 trials=5\n' > "$spec"
  run="$campaign run --spec=$spec --state=$work/state --quiet"
  expect_usage $run --window=abc
  expect_usage $run --window=0
  expect_usage $run --window=-1
  expect_usage $run --window=65537
  expect_usage $run --window=8x
  expect_usage $run --window=99999999999999999999
  expect_usage $run --tiles=-1
  expect_usage $run --tiles=4294967297
  expect_usage $run --checkpoint-every=-5
  expect_usage $run --checkpoint-every=ten
  expect_usage $run --progress=-1
  expect_usage $run --progress=
  expect_usage $run --stop-after=-2
  expect_usage $run --stop-after=3.5
  expect_usage "$campaign" resume --spec="$spec" --state="$work/state" \
    --window=0
  # The bounds themselves are accepted.
  expect_exit 0 $run --window=1 --tiles=1 --checkpoint-every=0 \
    --progress=0 --stop-after=-1
  expect_exit 0 $run --window=65536 --tiles=2
}

case $part in
  bad-flags) bad_flags ;;
  *) echo "unknown part: $part"; exit 2 ;;
esac

if [ "$failures" -ne 0 ]; then
  echo "$failures check(s) failed"
  exit 1
fi
echo "sskel_campaign CLI $part: all checks passed"
