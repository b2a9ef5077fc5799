#!/bin/sh
# Strict numeric flags in the trace tools, over an unfinalized stream (the
# first 20,000 bytes of a streamed fleet trace: its finalized header counts
# more records than are left on disk, so follow mode never sees it
# finalize). A value that is not a whole number in range, or 0 for a poll
# interval or a window size, must exit 2 with the usage line. Each run sits
# under `timeout`, so a tool that accepts --poll-ms 0 and spins fails the
# test instead of hanging it. A 1 ms poll must still end the follow at the
# tools' 10 s idle timeout. Both tools flag that prefix, and a finalized
# file with a chopped record's bytes behind it, as a TRUNCATED stream.
#
# Usage: tool_flags_test.sh EXAMPLE_FLEET ENERGYTRACE ENERGYTOP WORKDIR
set -u
fleet=$1
energytrace=$2
energytop=$3
dir=$4
mkdir -p "$dir"
"$fleet" 200 2 2 "$dir/full.trc" > /dev/null || exit 1
head -c 20000 "$dir/full.trc" > "$dir/partial.trc"
trc="$dir/partial.trc"
failed=0

# expect CODE TOOL ARGS...: the tool must exit with CODE within 5 s.
expect() {
  code=$1
  shift
  timeout 5 "$@" > "$dir/out" 2> "$dir/err"
  got=$?
  if [ "$got" -ne "$code" ]; then
    echo "FAIL (exit $got, want $code): $*" >&2
    failed=1
  elif [ "$code" -eq 2 ] && ! grep -q "^usage:" "$dir/err"; then
    echo "FAIL (no usage line): $*" >&2
    failed=1
  fi
}

expect 2 "$energytop" "$trc" --poll-ms 0
expect 2 "$energytop" "$trc" --poll-ms abc
expect 2 "$energytop" "$trc" --poll-ms -5
expect 2 "$energytop" "$trc" --poll-ms 50ms
expect 2 "$energytop" "$trc" --poll-ms 99999999999
expect 2 "$energytop" "$trc" --window-frames 0
expect 2 "$energytop" "$trc" --window-frames abc
expect 2 "$energytop" "$trc" --alarms x --once
expect 2 "$energytrace" "$trc" --follow --poll-ms 0
expect 2 "$energytrace" "$trc" --poll-ms ""
expect 2 "$energytrace" "$trc" --timeline abc
expect 2 "$energytrace" "$trc" --timeline 1x
# Well-formed values still parse.
expect 0 "$energytop" "$trc" --once --window-frames 4 --alarms 0
expect 0 "$energytrace" "$trc" --timeline 0

# energytop --once prints the TRUNCATED hint energytrace prints, on the
# unfinalized prefix and on a finalized file with the stray bytes of a
# chopped record behind it; the clean finalized stream has no hint.
cp "$dir/full.trc" "$dir/tail.trc"
printf 'xx' >> "$dir/tail.trc"
# expect_truncated TOOL FILE ARGS...: exits 0 within 5 s and prints the hint.
expect_truncated() {
  if ! timeout 5 "$@" > "$dir/out" 2>&1 || ! grep -q "TRUNCATED stream" "$dir/out"; then
    echo "FAIL (no TRUNCATED hint): $*" >&2
    failed=1
  fi
}
for f in "$trc" "$dir/tail.trc"; do
  expect_truncated "$energytop" "$f" --once
  expect_truncated "$energytrace" "$f"
done
if ! timeout 5 "$energytop" "$dir/full.trc" --once > "$dir/out" 2>&1 ||
    grep -q "TRUNCATED" "$dir/out"; then
  echo "FAIL (clean stream reported truncated): energytop --once $dir/full.trc" >&2
  failed=1
fi

# A 1 ms poll on a stream that never finalizes ends at the idle timeout.
timeout 30 "$energytop" "$trc" --poll-ms 1 > /dev/null 2>&1 &
top_pid=$!
timeout 30 "$energytrace" "$trc" --follow --poll-ms 1 > /dev/null 2>&1 &
trace_pid=$!
wait "$top_pid" || { echo "FAIL: energytop --poll-ms 1 did not end" >&2; failed=1; }
wait "$trace_pid" || { echo "FAIL: energytrace --follow --poll-ms 1 did not end" >&2; failed=1; }

[ "$failed" -eq 0 ] || exit 1
echo "tool flags: ok"
