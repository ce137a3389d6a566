#!/bin/sh
# counter_gate.sh base.json head.json
#
# Compares two results of `bash benchmark/run.sh --quick --trace 1 --json
# <file>`, one of the merge base and one of the head, made in the same job.
# It fails when a machine-independent counter of any workload is more than
# 1 % worse (all of them are lower-is-better) on head, one threshold for
# all 13. Identical code repeats these to within 0.02 %, which is why 1 %
# can fire where a timing threshold cannot. Timings and wal.fsyncs_per_op (4.5 % apart between
# identical --quick runs) are printed for the reader and never failed on.
set -eu
[ $# -eq 2 ] || { echo "usage: $0 base.json head.json" >&2; exit 2; }

report=$(jq -rn --slurpfile base "$1" --slurpfile head "$2" '
  ["core.allocs_per_op", "topk.allocs_per_op",
   "xmlsearch.topk_allocs_per_op", "xmlsearch.search_allocs_per_op",
   "core.bytes_per_op", "topk.bytes_per_op",
   "colstore.open_cold_allocs", "colstore.open_hot_allocs",
   "colstore.decoded_bytes_per_query", "colstore.blocks_decoded_per_query",
   "core.touched_per_result", "topk.rows_pulled_ratio",
   "obshttp.response_bytes"] as $gated
  | def flat: [.workloads[] | .name as $w | (.layers // {}) | to_entries[]
               | {key: "\($w) \(.key)", value: .value}] | from_entries;
  ($base[0] | flat) as $b | ($head[0] | flat) as $h
  | $b | keys_unsorted[] | . as $k | (split(" ")[1]) as $name
  | $b[$k].value as $bv | $h[$k].value as $hv
  | select($bv != 0 or ($hv // 0) != 0)
  | (if $hv == null then "missing on head"
     elif $bv == 0 then "was 0"
     else "\(($hv / $bv - 1) * 1000 | round / 10 + 0)%" end) as $delta
  | (if ($gated | index($name)) == null then
       (if $name == "wal.fsyncs_per_op" or ($b[$k].unit | IN("s", "ms", "us"))
        then "note" else empty end)
     elif $hv == null or $hv > $bv * 1.01 then "FAIL" else "ok  " end) as $verdict
  | "\($verdict) \($k) base=\($bv) head=\($hv) (\($delta))"')
printf '%s\n' "$report"

if ! printf '%s\n' "$report" | grep -qE '^(ok  |FAIL) '; then
	echo "counter gate: no gated counter in $1; were both runs made with --trace 1?" >&2
	exit 2
fi
if printf '%s\n' "$report" | grep -q '^FAIL '; then
	echo "counter gate: FAILED, a counter above is more than 1% worse on head" >&2
	exit 1
fi
echo "counter gate: passed, no gated counter more than 1% worse on head"
