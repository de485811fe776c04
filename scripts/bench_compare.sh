#!/usr/bin/env bash
# Serve-latency trajectory: warns (never fails) when a row of the
# `serve_stress` TCP loadgen's latency artifact (SERVE_net_results.json)
# moved beyond a noise threshold between two runs. The loadgen writes its
# p50/p99/p999/ns_per_req rows in a `benchmarks` list for this script.
#
# Usage: scripts/bench_compare.sh <previous.json> <current.json>
#
# Each results file has the shape
#   {"schema_version":1,…,"benchmarks":[{"id":…,"median_ns":…},…]}
#
# A relative change within ±35% counts as noise. Exit code is always 0:
# this is a trend signal, not a gate. Regressions print GitHub warning
# annotations so they surface on the run summary.
set -u

readonly NOISE_RATIO=0.35

prev="${1:?usage: bench_compare.sh <previous.json> <current.json>}"
curr="${2:?usage: bench_compare.sh <previous.json> <current.json>}"

if ! [ -r "$prev" ] || ! [ -r "$curr" ]; then
  echo "bench_compare: nothing to compare (missing $prev or $curr)"
  exit 0
fi

jq -r -n --slurpfile prev "$prev" --slurpfile curr "$curr" --argjson noise "$NOISE_RATIO" '
  ($prev[0].benchmarks | map({key: .id, value: .median_ns}) | from_entries) as $before
  | $curr[0].benchmarks[]
  | . as $row
  | ($before[$row.id] // null) as $old
  | $row.median_ns as $new
  | if $old == null or $old == 0 then
      "::notice::bench \($row.id): no previous median to compare"
    else
      (($new - $old) / $old) as $delta
      | if ($delta | fabs) > $noise then
          if $delta > 0 then
            "::warning::bench \($row.id): median regressed \($old) ns -> \($new) ns (+\(($delta * 100 * 10 | round) / 10)%)"
          else
            "::notice::bench \($row.id): median improved \($old) ns -> \($new) ns (\(($delta * 100 * 10 | round) / 10)%)"
          end
        else
          "bench \($row.id): \($old) ns -> \($new) ns (within ±\(($noise * 100 | round))% noise)"
        end
    end
' || echo "bench_compare: comparison failed (malformed results file?)"

exit 0
