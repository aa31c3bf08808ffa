#!/usr/bin/env bash
# Tier-1 gate: vet, build, and test (race detector on) the whole module.
# CI and pre-merge checks run exactly this script.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every file this run writes lives under its own work directory, so two
# concurrent runs on one host never share a binary, a daemon log or a
# store. The EXIT trap removes it (and stops a smoke daemon still up).
work=$(mktemp -d "${TMPDIR:-/tmp}/vltcheck.XXXXXX")
vltd_pid=""
cleanup() {
    [ -n "$vltd_pid" ] && kill "$vltd_pid" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: these files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -race ./... (invariant auditor forced on)"
VLT_AUDIT=on go test -race ./...

echo "== benchmark module tests (expall.golden, run/experiment body digests, vltexp parity)"
# bench/ is a module of its own, so ./... above does not reach it. Its
# tests pin vltexp -all to bench/testdata/expall.golden and the bodies of
# all 78 grid /v1/run cells and 11 /v1/experiment responses to their
# digests, so byte-identity gates every change.
(cd bench && go test ./...)

echo "== goldens (testdata/metrics_base_mxm.golden, testdata/expall_json.golden, store.FormatVersion pinned to the outputs)"
go test -v -run 'TestGoldenMetrics|TestCollectAllAndJSON|TestFormatVersionPinsOutputs' .

echo "== option space (every machine x workload x lanes 0-7,12,16 x threads 0-8: each cell verifies or is refused before simulating)"
# The tier-1 run above covers a documented sample of this grid; here the
# same test runs all of it (about 30 s on two cores) and must not fail.
go test -count=1 -run '^TestAcceptedOptionSpace$' -optionspace.full .

echo "== fuzz smoke (5s per target)"
go test -run='^$' -fuzz=FuzzAssemble -fuzztime=5s ./internal/asm
go test -run='^$' -fuzz=FuzzDecode -fuzztime=5s ./internal/isa
go test -run='^$' -fuzz=FuzzSweepLine -fuzztime=5s ./internal/serve
go test -run='^$' -fuzz=FuzzSweepFrame -fuzztime=5s ./internal/vltclient

echo "== go build ./cmd/... (the nine commands, built once for the gates below)"
bin="$work/bin"
go build -o "$bin/" ./cmd/...

echo "== toolchain round trip (vltasm, vltdis, vltasm, vltdis over examples/programs/*.vasm; vltrun on source and image)"
# The disassembler prints each operand in the syntax the assembler
# parses (isa.Info.Syntax), so a disassembly must assemble back to the
# same program: the two disassemblies match after their "# program"
# header line, which names the input file. vltrun then runs the source
# and the twice-assembled image with every observer on; stdout, stderr
# and the Chrome trace must be identical.
run_flags=(-machine V2-CMP -threads 2 -sample 50 -trace -pipeview)
for src in examples/programs/*.vasm; do
    base="$work/$(basename "$src" .vasm)"
    "$bin/vltasm" -o "$base.1.vltp" "$src"
    "$bin/vltdis" "$base.1.vltp" >"$base.1.vasm"
    "$bin/vltasm" -o "$base.2.vltp" "$base.1.vasm"
    "$bin/vltdis" "$base.2.vltp" >"$base.2.vasm"
    if ! diff <(tail -n +2 "$base.1.vasm") <(tail -n +2 "$base.2.vasm"); then
        echo "toolchain round trip: $src does not reassemble to the same program" >&2
        exit 1
    fi
    "$bin/vltrun" "${run_flags[@]}" -chrometrace "$base.src.json" "$src" \
        >"$base.src.out" 2>"$base.src.err"
    "$bin/vltrun" "${run_flags[@]}" -chrometrace "$base.img.json" "$base.2.vltp" \
        >"$base.img.out" 2>"$base.img.err"
    for ext in out err json; do
        if ! diff "$base.src.$ext" "$base.img.$ext" >/dev/null; then
            echo "toolchain round trip: vltrun's $ext differs between $src and its reassembled image" >&2
            diff "$base.src.$ext" "$base.img.$ext" | head -20 >&2
            exit 1
        fi
    done
done

echo "== vltsearch determinism (-workload mpenc -json at -jobs 1 and -jobs 2)"
# The search runs each wave's forks in parallel but collects them in
# wave order, so the worker count must not change a byte of the result.
"$bin/vltsearch" -workload mpenc -json -jobs 1 >"$work/search.1.json"
"$bin/vltsearch" -workload mpenc -json -jobs 2 >"$work/search.2.json"
if ! diff "$work/search.1.json" "$work/search.2.json"; then
    echo "vltsearch determinism: -json output differs between -jobs 1 and -jobs 2" >&2
    exit 1
fi

echo "== vltlint -docs ./... (all lint passes repo-wide + analyzer speed guard)"
# All passes must run clean: determinism rules on the core, no goroutine
# outside internal/runner, no blocking operation under a held mutex,
# deadline propagation on the serving layer, metrics-registration
# exhaustiveness, unused ignore directives, and doc.go per internal/cmd
# package. The run is timed against a 5s bound (built binary, so compile
# time is excluded): the suite only stays a per-commit gate while it
# stays cheap.
lint_start=$(date +%s%N)
"$bin/vltlint" -docs ./...
lint_end=$(date +%s%N)
lint_ms=$(( (lint_end - lint_start) / 1000000 ))
echo "guard: full-repo lint took ${lint_ms}ms"
if [ "$lint_ms" -gt 5000 ]; then
    echo "guard: analyzer exceeded the 5000ms bound" >&2
    exit 1
fi

echo "== mutant catalogue applies (git apply --check testdata/mutants/*.patch)"
# Each mutant is one committed defect with the checks that should kill
# it (scripts/mutants.sh runs them and writes testdata/mutants/record.json;
# it takes far too long for this gate). A change that makes a patch stale
# must re-base it here, so the catalogue never silently loses a mutant.
for patch in testdata/mutants/*.patch; do
    if ! git apply --check "$patch"; then
        echo "mutant catalogue: $patch no longer applies; re-base it on this change" >&2
        exit 1
    fi
done

echo "== docs gate (CLI.md documents every cmd/* binary and no other, each synopsis names exactly the flags -h prints)"
# Whole-word matches, so a mention of vltdis does not count for vltd.
for d in cmd/*/; do
    name=$(basename "$d")
    if ! grep -qw "$name" CLI.md; then
        echo "docs gate: CLI.md does not mention $name" >&2
        exit 1
    fi
done
for name in $(sed -n 's/^## \([^ ]*\) —.*/\1/p' CLI.md); do
    if [ ! -d "cmd/$name" ]; then
        echo "docs gate: CLI.md documents $name, but there is no cmd/$name" >&2
        exit 1
    fi
    # The synopsis is the first code block of the command's section; a
    # flag is a "-name" after a space, "[" or "|" (so V4-CMT is not one).
    documented=$(awk -v name="$name" '
        $0 ~ "^## " name " —" { sect = 1; next }
        /^## / { sect = 0 }
        sect && /^```/ { if (blk) exit; blk = 1; next }
        sect && blk {
            s = " " $0
            while (match(s, /[[ |]-[a-z][a-z0-9-]*/)) {
                print substr(s, RSTART + 2, RLENGTH - 2)
                s = substr(s, RSTART + RLENGTH)
            }
        }' CLI.md | sort -u)
    help=$("$bin/$name" -h 2>&1 || true)
    printed=$(printf '%s\n' "$help" | sed -n 's/^  -\([a-z0-9-]*\).*/\1/p' | sort -u)
    if [ "$documented" != "$printed" ]; then
        echo "docs gate: $name's CLI.md synopsis names flags {" $documented "}, but $name -h prints {" $printed "}" >&2
        exit 1
    fi
done

echo "== vltvet (all nine workload kernels must be vet clean)"
go run ./cmd/vltvet -workloads all -threads 4

echo "== vet overhead guard (BenchmarkAssemble vs BenchmarkAssembleVet)"
bench=$(go test -run '^$' -bench 'BenchmarkAssemble(Vet)?$' -benchtime 20x -count 3 ./internal/asm)
printf '%s\n' "$bench"
printf '%s\n' "$bench" | awk '
    $1 ~ /^BenchmarkAssembleVet/ { if (vmin == 0 || $3 < vmin) vmin = $3; next }
    $1 ~ /^BenchmarkAssemble/    { if (amin == 0 || $3 < amin) amin = $3 }
    END {
        if (amin == 0 || vmin == 0) {
            print "guard: missing benchmark results" > "/dev/stderr"; exit 1
        }
        ratio = vmin / amin
        printf "guard: assemble %.2fms, assemble+vet %.2fms, vet overhead %.1f%%\n", \
            amin / 1e6, vmin / 1e6, (ratio - 1) * 100
        # Measured overhead is ~8% of the parse+encode pipeline
        # (~290ns/instruction); the bound leaves room for CI noise.
        if (ratio > 1.25) {
            print "guard: vet overhead exceeds the 25% bound" > "/dev/stderr"; exit 1
        }
    }'

echo "== cycle-skip guard (BenchmarkBaseMXMSkip vs BenchmarkBaseMXMTick)"
schedb=$(go test -run '^$' -bench '^BenchmarkBaseMXM(Skip|Tick)$' -benchtime 30x -count 5 .)
printf '%s\n' "$schedb" | grep '^Benchmark'
printf '%s\n' "$schedb" | awk '
    $1 ~ /^BenchmarkBaseMXMSkip/ { s[sn++] = $3 }
    $1 ~ /^BenchmarkBaseMXMTick/ { t[tn++] = $3 }
    function median(a, n,    i, j, v) {
        for (i = 1; i < n; i++) {
            v = a[i]
            for (j = i - 1; j >= 0 && a[j] > v; j--) a[j+1] = a[j]
            a[j+1] = v
        }
        return a[int(n / 2)]
    }
    END {
        if (sn == 0 || tn == 0) {
            print "guard: missing benchmark results" > "/dev/stderr"; exit 1
        }
        smed = median(s, sn); tmed = median(t, tn)
        ratio = smed / tmed
        printf "guard: skipping %.2fms, ticking %.2fms, ratio %.2f (median of %d)\n", \
            smed / 1e6, tmed / 1e6, ratio, sn
        # mxm on the base machine saturates the vector unit, so there is
        # almost nothing to skip: this cell bounds the event-scheduler
        # OVERHEAD (the equivalence harness bounds its correctness;
        # quiescence gating keeps the expected ratio ~1.0). Medians,
        # because single samples on a shared box swing ~30%; the 20%
        # headroom is CI noise, same spirit as the vet overhead guard.
        if (ratio > 1.20) {
            print "guard: event-driven skipping is slower than ticking" > "/dev/stderr"; exit 1
        }
    }'

echo "== fork overhead guard (BenchmarkFork vs BenchmarkReplayToForkPoint)"
forkb=$(go test -run '^$' -bench 'BenchmarkFork$|BenchmarkReplayToForkPoint$' -benchtime 10x -count 3 .)
printf '%s\n' "$forkb" | grep '^Benchmark'
printf '%s\n' "$forkb" | awk '
    $1 ~ /^BenchmarkReplayToForkPoint/ { if (rmin == 0 || $3 < rmin) rmin = $3; next }
    $1 ~ /^BenchmarkFork/              { if (fmin == 0 || $3 < fmin) fmin = $3 }
    END {
        if (fmin == 0 || rmin == 0) {
            print "guard: missing benchmark results" > "/dev/stderr"; exit 1
        }
        ratio = fmin / rmin
        printf "guard: fork %.2fms, replay-to-fork-point %.2fms, fork/replay %.2f\n", \
            fmin / 1e6, rmin / 1e6, ratio
        # Fork is the search driver'\''s whole value proposition: an O(state)
        # snapshot instead of re-simulating the 5000-cycle prefix. Measured
        # ~0.09x on this cell on a shared 2-vCPU host, most of it the L2
        # tag copy (the uop arena copy is a few slabs); the 0.5x bound
        # only trips if Fork degrades to the same order as replay (e.g. an
        # accidental deep copy of the program or a per-uop re-simulation
        # sneaking in).
        if (ratio > 0.5) {
            print "guard: forking costs more than half a prefix replay" > "/dev/stderr"; exit 1
        }
    }'

echo "== vltd smoke (boot with a temp -store, run and experiment, restart serves both from disk, ETag revalidates)"
vltd_store="$work/store"
vltd_log="$work/vltd.out"
mkdir "$vltd_store"

# vltd_boot: boot one daemon, set vltd_pid and vltd_url.
vltd_boot() {
    "$bin/vltd" -addr 127.0.0.1:0 -store "$vltd_store" >"$vltd_log" 2>&1 &
    vltd_pid=$!
    vltd_url=""
    for _ in $(seq 1 100); do
        vltd_url=$(sed -n 's/.*listening on \(http:\/\/[^ ]*\).*/\1/p' "$vltd_log")
        [ -n "$vltd_url" ] && break
        sleep 0.05
    done
    if [ -z "$vltd_url" ]; then
        echo "vltd smoke: daemon never printed its listen line" >&2
        cat "$vltd_log" >&2
        exit 1
    fi
}

# vltd_stop: drained SIGTERM exit, shutdown line present.
vltd_stop() {
    kill -TERM "$vltd_pid"
    if ! wait "$vltd_pid"; then
        echo "vltd smoke: daemon did not exit cleanly on SIGTERM" >&2
        cat "$vltd_log" >&2
        exit 1
    fi
    vltd_pid=""
    grep -q "shutdown complete" "$vltd_log"
}

# Every response is captured whole before grep -q reads it from a
# here-string: piped into grep -q, curl could still be writing when
# grep exits at its first match, and under pipefail its exit 23
# ("Failed writing body") would fail the step.

# Boot 1: cold store, one simulated cell and one experiment (its cells
# drawn from the daemon's Jobs slots) spill to disk, the experiment's
# cells with it.
vltd_boot
body=$(curl -fsS "$vltd_url/healthz")
grep -q '"status":"ok"' <<<"$body"
body=$(curl -fsS "$vltd_url/healthz?ready=1")
grep -q '"status":"ready"' <<<"$body"
body=$(curl -fsS "$vltd_url/v1/run?workload=mxm&machine=base")
grep -q '"cycles"' <<<"$body"
body=$(curl -fsS "$vltd_url/v1/experiment?name=table4")
grep -q '"text"' <<<"$body"
vltd_stop

# Boot 2: fresh process, empty memory cache — the store must answer
# without re-simulating, and its ETag must revalidate to a 304. trfd/base
# was never requested as a run: boot 1's table4 stored it as one of its
# cells.
vltd_boot
body=$(curl -fsSi "$vltd_url/v1/run?workload=trfd&machine=base")
grep -qi 'X-VLT-Cache: disk' <<<"$body"
run_headers=$(curl -fsSi "$vltd_url/v1/run?workload=mxm&machine=base")
grep -qi 'X-VLT-Cache: disk' <<<"$run_headers"
grep -q '"cycles"' <<<"$run_headers"
etag=$(tr -d '\r' <<<"$run_headers" | sed -n 's/^[Ee][Tt]ag: //p')
if [ -z "$etag" ]; then
    echo "vltd smoke: run response carried no ETag" >&2
    exit 1
fi
body=$(curl -fsSi -H "If-None-Match: $etag" "$vltd_url/v1/run?workload=mxm&machine=base")
grep -q '304 Not Modified' <<<"$body"
body=$(curl -fsSi "$vltd_url/v1/experiment?name=table4")
grep -qi 'X-VLT-Cache: disk' <<<"$body"
vltd_stop

echo "check.sh: all gates passed"
