#!/bin/sh
# Seeded trace-file mutants through the offline tools. A sharded fleet
# stream opens with the plan dump; byte 59 is the high byte of record 0's
# actor (the 32-byte file header, then 24 bytes into the record), a
# kPlanShard record. Flipping bit 7 or bit 6 there names shard 2^31 or 2^30;
# both tools must skip the record as corrupt and exit 0 instead of sizing a
# per-shard table from it.
#
# Usage: corrupt_trace_test.sh EXAMPLE_FLEET ENERGYTRACE ENERGYTOP WORKDIR
set -eu
fleet=$1
energytrace=$2
energytop=$3
dir=$4
mkdir -p "$dir"
"$fleet" 200 2 2 "$dir/clean.trc" > /dev/null
for bit in 128 64; do
  mutant="$dir/mutant_$bit.trc"
  cp "$dir/clean.trc" "$mutant"
  orig=$(od -An -tu1 -j59 -N1 "$mutant" | tr -d ' ')
  # shellcheck disable=SC2059  # The octal escape is the format on purpose.
  printf "$(printf '\\%03o' $((orig ^ bit)))" |
    dd of="$mutant" bs=1 seek=59 count=1 conv=notrunc 2> /dev/null
  if cmp -s "$dir/clean.trc" "$mutant"; then
    echo "mutant $bit: byte 59 unchanged" >&2
    exit 1
  fi
  "$energytrace" "$mutant" > "$dir/trace_$bit.out"
  grep -q "CORRUPT records skipped: 1 " "$dir/trace_$bit.out"
  "$energytop" "$mutant" --once > "$dir/top_$bit.out"
  grep -q "CORRUPT records skipped: 1 " "$dir/top_$bit.out"
done
# The clean stream reports nothing corrupt.
"$energytrace" "$dir/clean.trc" | grep -q "complete stream"
if "$energytrace" "$dir/clean.trc" | grep -q CORRUPT; then exit 1; fi
echo "corrupt-trace mutants: ok"
