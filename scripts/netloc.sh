#!/usr/bin/env bash
# netloc.sh [BASE]: the net non-test Go line delta of the working tree
# against BASE (default HEAD), printed as "+A −D = N". It counts *.go
# files outside bench/ and testdata/ directories, excluding *_test.go:
# the figure every change reports (ROADMAP aim 2). git diff sees only
# tracked files, so stage new files first (git add, or git add -N).
# After committing, pass the parent, e.g. `scripts/netloc.sh HEAD~1`.
set -euo pipefail
cd "$(dirname "$0")/.."
base=${1:-HEAD}
git diff --numstat "$base" -- '*.go' \
    ':(exclude)*_test.go' ':(exclude)bench/' ':(exclude)*testdata/*' |
    awk '
        { added += $1; deleted += $2 }
        END {
            net = added - deleted
            sign = net < 0 ? "−" : "+"
            printf "+%d −%d = %s%d\n", added, deleted, sign, net < 0 ? -net : net
        }'
