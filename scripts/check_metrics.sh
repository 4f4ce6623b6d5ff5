#!/usr/bin/env bash
# Validate a Prometheus text-exposition (v0.0.4) scrape, e.g. the
# /metrics output MetricsHttpServer serves (docs/OBSERVABILITY.md).
# Fails on the malformations a registry bug would produce: duplicate or
# interleaved families, a series repeated within its family (same name and
# label set, e.g. per-shard samples that lost their shard label), samples
# with no # TYPE header, bad metric/label names, unparseable values,
# histograms missing their +Inf bucket or with +Inf != _count.
#
# Usage: scripts/check_metrics.sh [scrape_file]   (default: stdin)
set -euo pipefail

input="${1:-/dev/stdin}"

awk '
function fail(msg) {
  printf "check_metrics: line %d: %s\n  %s\n", NR, msg, $0 > "/dev/stderr"
  bad = 1
}
# Family a sample belongs to: histogram series carry _bucket/_sum/_count
# suffixes on top of the declared family name.
function family_of(name) {
  if (name in type) return name
  if (name ~ /_bucket$/ && substr(name, 1, length(name) - 7) in type)
    return substr(name, 1, length(name) - 7)
  if (name ~ /_sum$/ && substr(name, 1, length(name) - 4) in type)
    return substr(name, 1, length(name) - 4)
  if (name ~ /_count$/ && substr(name, 1, length(name) - 6) in type)
    return substr(name, 1, length(name) - 6)
  return ""
}
BEGIN { bad = 0; current = "" }

/^$/ { fail("blank line in exposition"); next }

/^# HELP / {
  if (split($0, h, " ") < 3) fail("# HELP without name and text")
  next
}
/^# TYPE / {
  n = split($0, t, " ")
  if (n != 4) { fail("# TYPE must be \"# TYPE <name> <kind>\""); next }
  name = t[3]; kind = t[4]
  if (name !~ /^[a-zA-Z_:][a-zA-Z0-9_:]*$/) fail("invalid family name " name)
  if (kind !~ /^(counter|gauge|histogram|summary|untyped)$/)
    fail("unknown family kind " kind)
  if (name in type) fail("duplicate # TYPE for family " name)
  type[name] = kind
  next
}
/^#/ { fail("unrecognized comment line"); next }

{
  # Sample: name[{labels}] value [timestamp]
  line = $0
  name = line
  labels = ""
  brace = index(line, "{")
  if (brace > 0) {
    name = substr(line, 1, brace - 1)
    rest = substr(line, brace)
    close_idx = index(rest, "}")
    if (close_idx == 0) { fail("unterminated label set"); next }
    labels = substr(rest, 2, close_idx - 2)
    line = name " " substr(rest, close_idx + 2)
  }
  n = split(line, f, " ")
  if (brace == 0) name = f[1]
  if (n < 2 || n > 3) { fail("sample is not \"name value [ts]\""); next }
  if (name !~ /^[a-zA-Z_:][a-zA-Z0-9_:]*$/) fail("invalid metric name " name)
  value = f[2]
  if (value !~ /^[+-]?([0-9]*\.?[0-9]+([eE][+-]?[0-9]+)?|Inf|NaN)$/)
    fail("unparseable value " value)

  fam = family_of(name)
  if (fam == "") { fail("sample " name " has no # TYPE header"); next }

  # Families must be contiguous: once left, a family may not reappear.
  if (fam != current) {
    if (fam in seen) fail("family " fam " interleaved (appears twice)")
    seen[fam] = 1
    current = fam
  }

  # Light label-syntax check: key="...",... with valid keys. Escaped
  # quotes inside values are rewritten away before matching.
  if (labels != "") {
    check = labels
    gsub(/\\\\/, "", check)
    gsub(/\\"/, "", check)
    if (check !~ /^[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*$/)
      fail("malformed label set {" labels "}")
  }

  # One sample per series: the label set as rendered, order included.
  series = labels == "" ? name : name "{" labels "}"
  if (series in series_seen) fail("repeated series " series)
  series_seen[series] = 1

  if (type[fam] == "histogram") {
    if (name == fam "_count") hist_count[fam] = value + 0
    if (name == fam "_bucket" && labels ~ /le="\+Inf"/) {
      hist_inf[fam] = value + 0
      hist_has_inf[fam] = 1
    }
    if (name == fam "_sum") hist_has_sum[fam] = 1
  }
}
END {
  for (fam in type) {
    if (type[fam] != "histogram") continue
    if (!(fam in seen)) continue  # declared but no samples: tolerated
    if (!(fam in hist_has_inf)) fail("histogram " fam " missing +Inf bucket")
    if (!(fam in hist_has_sum)) fail("histogram " fam " missing _sum")
    if (!(fam in hist_count)) fail("histogram " fam " missing _count")
    else if ((fam in hist_inf) && hist_inf[fam] != hist_count[fam]) {
      printf "check_metrics: histogram %s +Inf bucket %d != _count %d\n", \
        fam, hist_inf[fam], hist_count[fam] > "/dev/stderr"
      bad = 1
    }
  }
  if (bad) exit 1
  n = 0
  for (fam in seen) n++
  printf "check_metrics: OK (%d families with samples)\n", n
}
' "${input}"
