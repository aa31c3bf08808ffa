#!/usr/bin/env bash
# mutants.sh [patch...]: run the mutant catalogue against the checks
# each mutant names, and record which checks kill it.
#
# A mutant is a testdata/mutants/*.patch file: `git diff` output of one
# deliberate defect, preceded by a header (git apply skips everything
# before the first "diff --git" line):
#
#   Mutant: what the defect is, on one line
#   Rule: the vltlint rule written to catch it
#   Check <name>: a shell command, run from the tree's root
#
# For each patch the script copies the tracked working tree into one
# work directory (the same path for every patch, so the Go build cache
# is reused), applies the patch and runs every check under a 20-minute
# timeout, above root -race's ~8 minutes. A check that fails or times out
# killed the mutant; one that passes let it survive; a patch that no
# longer applies is stale for every check. Each outcome is recorded with
# its wall-clock seconds and, for a kill, the first lines that name the
# killer (a failing test, a finding, a race, a timeout).
#
# The record, testdata/mutants/record.json, lists every patch in the
# catalogue. With no arguments every patch runs; with patches named,
# only they run, and the other patches keep their recorded entries.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
limit=1200 # seconds per check

record=testdata/mutants/record.json
[ $# -gt 0 ] || set -- testdata/mutants/*.patch

work=$(mktemp -d "${TMPDIR:-/tmp}/vltmutants.XXXXXX")
trap 'rm -rf "$work"' EXIT
tree="$work/tree"
entries="$work/entries" # one JSON object per patch, named after it
mkdir "$entries"

# json_str prints $1 as a JSON string literal.
json_str() {
    local s=${1//\\/\\\\}
    s=${s//\"/\\\"}
    s=${s//$'\t'/\\t}
    printf '"%s"' "$s"
}

# evidence prints the first lines of a check's output that name what
# killed the mutant, one JSON string per line, comma-separated.
evidence() {
    { grep -E -- '^--- FAIL: |^[^ ]+\.go:[0-9]+:[0-9]+: |WARNING: DATA RACE|^fatal error: |panic: test timed out|^FAIL	' "$1" || true; } |
        sed 's/ (\([0-9.]*s\))$//' | awk '!seen[$0]++' | head -n 4 |
        while IFS= read -r line; do json_str "$line"; echo; done | paste -sd, -
}

for patch in "$@"; do
    name=$(basename "$patch" .patch)
    rule=$(sed -n 's/^Rule: //p' "$patch" | head -n 1)
    echo "== $name ($rule)" >&2

    rm -rf "$tree"
    mkdir "$tree"
    git ls-files -z | tar --null -T - -cf - | tar -xf - -C "$tree"
    stale=0
    if ! (cd "$tree" && git apply "$root/$patch") 2>"$work/apply.err"; then
        stale=1
        echo "   stale: $(head -n 1 "$work/apply.err")" >&2
    fi

    out="$entries/$name.patch"
    {
        printf '    {\n      "patch": %s,\n      "rule": %s,\n' "$(json_str "$name.patch")" "$(json_str "$rule")"
        printf '      "mutant": %s,\n      "checks": [\n' "$(json_str "$(sed -n 's/^Mutant: //p' "$patch" | head -n 1)")"
    } >"$out"
    sep=""
    while IFS= read -r line; do
        check=${line%%:*}
        check=${check#Check }
        cmd=${line#*: }
        outcome=stale seconds=0 killers=""
        if [ $stale -eq 0 ]; then
            start=$(date +%s%N)
            if (cd "$tree" && timeout -k 10 "$limit" bash -c "$cmd") >"$work/check.log" 2>&1; then
                outcome=survived
            else
                status=$?
                outcome=killed
                killers=$(evidence "$work/check.log")
                if [ $status -eq 124 ] || [ $status -eq 137 ]; then
                    killers=${killers:+$killers,}$(json_str "timed out after ${limit}s")
                fi
            fi
            end=$(date +%s%N)
            seconds=$(awk -v ns=$((end - start)) 'BEGIN { printf "%.1f", ns / 1e9 }')
        fi
        echo "   $check: $outcome (${seconds}s)" >&2
        {
            printf '%s        {"check": %s, "command": %s, "outcome": "%s", "seconds": %s' \
                "$sep" "$(json_str "$check")" "$(json_str "$cmd")" "$outcome" "$seconds"
            [ -z "$killers" ] || printf ', "killers": [%s]' "$killers"
            printf '}'
        } >>"$out"
        sep=$',\n'
    done < <(grep '^Check [a-z0-9-]*: ' "$patch")
    printf '\n      ]\n    }' >>"$out"
done

# Patches not run keep their recorded entries.
if [ -f "$record" ]; then
    awk -v dir="$entries" '
        /^    \{$/ { blk = $0; next }
        blk != "" { blk = blk "\n" $0 }
        blk != "" && /^      "patch": / { split($0, q, "\""); name = q[4] }
        blk != "" && /^    \},?$/ {
            sub(/,$/, "", blk)
            f = dir "/" name
            if ((getline line <f) < 0) printf "%s", blk >f
            close(f)
            blk = ""
        }' "$record"
fi

{
    printf '{\n  "mutants": [\n'
    sep=""
    for patch in testdata/mutants/*.patch; do
        entry="$entries/$(basename "$patch")"
        if [ ! -f "$entry" ]; then
            echo "mutants.sh: $patch has no recorded entry; name it to run it" >&2
            exit 1
        fi
        printf '%s' "$sep"
        cat "$entry"
        sep=$',\n'
    done
    printf '\n  ]\n}\n'
} >"$work/record.json"
cp "$work/record.json" "$record"
echo "wrote $record" >&2
