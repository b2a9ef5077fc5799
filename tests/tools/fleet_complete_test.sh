#!/bin/sh
# Fleet telemetry completeness: a pooled 2,000-phone fleet (above the size
# where a per-shard record stream used to overflow the default rings) must
# stream every record, so the live totals equal the engine's bit for bit,
# and the health monitor raises no alarm of any kind.
#
# Usage: fleet_complete_test.sh EXAMPLE_FLEET WORKDIR
set -u
fleet=$1
dir=$2
mkdir -p "$dir"
out="$dir/fleet.out"
if ! "$fleet" 2000 4 3 > "$out"; then
  echo "FAIL: example_fleet 2000 4 3 exited nonzero" >&2
  cat "$out" >&2
  exit 1
fi
if ! grep -q "live totals match engine: tap yes decay yes" "$out"; then
  echo "FAIL: live totals do not match the engine" >&2
  cat "$out" >&2
  exit 1
fi
if grep -q "ALARM" "$out"; then
  echo "FAIL: the health monitor raised alarms" >&2
  grep "ALARM" "$out" >&2
  exit 1
fi
echo "fleet completeness: ok"
