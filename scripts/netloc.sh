#!/usr/bin/env bash
# netloc.sh [BASE]: the net non-test Go line delta of the working tree
# against BASE (default HEAD), printed as "+A −D = N". It counts *.go
# files outside bench/ and testdata/ directories, excluding *_test.go:
# the figure every change reports (ROADMAP aim 2). Untracked files
# count as added lines, so new files need not be staged first. After
# committing, pass the parent, e.g. `scripts/netloc.sh HEAD~1`.
set -euo pipefail
cd "$(dirname "$0")/.."
base=${1:-HEAD}
pathspec=('*.go' ':(exclude)*_test.go' ':(exclude)bench/' ':(exclude)*testdata/*')
{
    git diff --numstat "$base" -- "${pathspec[@]}"
    git ls-files -z --others --exclude-standard -- "${pathspec[@]}" |
        xargs -0 -r wc -l | awk '$2 != "total" { print $1, 0, $2 }'
} |
    awk '
        { added += $1; deleted += $2 }
        END {
            net = added - deleted
            sign = net < 0 ? "−" : "+"
            printf "+%d −%d = %s%d\n", added, deleted, sign, net < 0 ? -net : net
        }'
