#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, vet, build, and the full test suite
# under the race detector. Run from anywhere; exits non-zero on the first
# failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt required for:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./... =="
go vet ./...

echo "== go build ./... =="
go build ./...

# kdlint enforces statically the five rules a planted defect showed no stage
# below catches (DESIGN.md §9): simclock, maporder, poolalias, errdrop,
# obssafe. Allocation-free hot paths, cross-node causality and per-rig
# state are NOT linted; the AllocsPerRun pins, the pinned client scenarios,
# the golden tables and the race stages below hold them. It needs the build
# above: analysis reads compiled export data out of the build cache. The
# -audit pass inventories every //kdlint:allow directive and holds the
# per-analyzer totals to the committed budget (scripts/kdlint_budget.txt):
# suppressions are a ratchet and may only shrink.
echo "== kdlint (findings + suppression audit) =="
go run ./cmd/kdlint -audit -budget scripts/kdlint_budget.txt ./...

# The failure-handling stack first: the DES kernel, the fabric, the fault
# injector, the broker failover logic, and the consumer-group rebalance
# matrix (concurrent scenario replicas) are where a data race would corrupt
# everything downstream, so they gate the full suite. This stage, not a
# linter, is the gate for state shared between simulations: the -workers
# pool runs many rigs at once, one per goroutine, and a package-level write
# from one rig's handler passes `go test` and is reported here as a DATA RACE.
# The kernel runs at three GOMAXPROCS settings. There are no channel handoffs
# in it; what this guards is coroutines (iter.Pull) that are created on one
# goroutine (the test's, or another process's) and resumed from another (a
# process driving the chain, a later Run's caller on a fresh goroutine, a
# -workers pool goroutine), whether or not the runtime has a second P to put
# that goroutine on.
echo "== go test -race -cpu 1,2,4 (sim) =="
go test -race -cpu 1,2,4 ./internal/sim/
echo "== go test -race (fabric, chaos, core, group) =="
go test -race ./internal/fabric/ ./internal/chaos/ ./internal/core/ ./internal/group/

echo "== go test -race ./... =="
go test -race ./...

# The decoder every broker and client runs on bytes a peer wrote, under the
# coverage-guided fuzzer for ten seconds: no panic on any input for any kind, a
# successful decode re-encodes to the same message in no more bytes, and no
# decoded field aliases the frame. Its seed corpus (the golden frame of every
# kind and each truncation of it) already ran as subtests of the stages above;
# an input the fuzzer finds is written under internal/kwire/testdata/fuzz and
# is committed with the fix.
echo "== fuzz smoke (kwire.FuzzDecodeInto, 10s) =="
go test -run=NONE -fuzz=FuzzDecodeInto -fuzztime=10s ./internal/kwire

# The one decoder no codec stands in front of: what a producer's QP carries to
# the RDMA produce module — region bytes, a Write+Send metadata frame, an
# immediate value — against a one-broker rig under both access modes: no panic,
# one acknowledgement per notification, every pooled request back. Seeds are
# built in code; c695d611056a0e38 under internal/core/testdata/fuzz is the
# input that found the 32-bit length charged as CRC time before it was bounded.
echo "== fuzz smoke (core.FuzzProduceNotification, 10s) =="
go test -run=NONE -fuzz=FuzzProduceNotification -fuzztime=10s ./internal/core

# The streaming engine's event parser reads record values a publisher wrote
# and stands in for encoding/json: no panic on any input, and what it accepts
# is an event the encoder writes back and the parser reads unchanged. Seeds
# are built in code (the sweep the differential test holds against
# json.Marshal).
echo "== fuzz smoke (stream.FuzzParseEvent, 10s) =="
go test -run=NONE -fuzz=FuzzParseEvent -fuzztime=10s ./internal/stream

# Every figure table, byte for byte, against the committed run. Any
# difference is a change in simulated behaviour. (That results_all.txt holds
# exactly the registered experiments, in registry order, is
# TestExperimentsMatchGoldenTables in internal/bench.)
echo "== golden tables (kdbench -fig all vs results_all.txt) =="
go run ./cmd/kdbench -fig all | diff - results_all.txt \
    || { echo "figure tables differ from results_all.txt: simulated behaviour changed" >&2; exit 1; }

# Rigs stay cheap: the bytes and the heap objects the whole suite allocates,
# one figure after the other in one process, against the committed ceilings
# (scripts/figs_alloc_budget.txt). Neither count depends on the host —
# buffers are pooled strongly, so no collection decides what is reallocated.
# Bytes grow when a rig-lifetime buffer stops being returned at teardown, or a
# figure provisions more than it moves; objects grow when something is
# allocated per record or per message again, which the byte ceiling alone
# would not see (fig21's 3 M small objects were 12 % of the suite's bytes).
echo "== suite allocation budget (kdbench -fig all -workers 1 -json) =="
figs_dir=.bench_build/figs-alloc # git-ignored, like perf/run.sh's build products
mkdir -p "$figs_dir"
go build -o "$figs_dir/kdbench" ./cmd/kdbench
(cd "$figs_dir" && ./kdbench -fig all -workers 1 -json >/dev/null 2>&1)
grep -v '^#' scripts/figs_alloc_budget.txt | while read -r field budget; do
    total=$(awk -F': *' -v key="\"$field\"" '$1 ~ key { sum += $2 } END { printf "%.0f", sum }' "$figs_dir/BENCH_figs.json")
    echo "suite $field $total, budget $budget"
    if [ "$total" -le 0 ] || [ "$total" -gt "$budget" ]; then
        echo "kdbench -fig all: $field $total is over the budget of $budget (scripts/figs_alloc_budget.txt); the five largest figures:" >&2
        awk -v key="^      \"$field\":" '/^      "id":/ { gsub(/[",]/, "", $2); id = $2 }
             $0 ~ key { printf "%12d  %s\n", $2, id }' \
            "$figs_dir/BENCH_figs.json" | sort -rn | head -n 5 >&2
        exit 1
    fi
done

# Nothing is renumbered: the events each figure executed in the run above and
# the coroutine switches it made, exactly, against the committed counts
# (scripts/figs_events.txt). Neither depends on the host or on -workers. A
# table can stay byte-identical over a different event count (an operation or
# a rig added or dropped, a wake-up that now costs two events), and events can
# stay put over a different switch count (who resumes whom changed in
# internal/sim); a refactor that claims to move nothing must leave all three
# alone. A change that means to move a figure regenerates its line and says
# why in CHANGES.md.
echo "== per-figure events and switches (BENCH_figs.json vs scripts/figs_events.txt) =="
awk '/^      "id":/ { gsub(/[",]/, "", $2); id = $2 }
     /^      "events":/ { gsub(/,/, "", $2); events = $2 }
     /^      "switches":/ { gsub(/,/, "", $2); print id, events, $2 }' \
    "$figs_dir/BENCH_figs.json" | diff - <(grep -v '^#' scripts/figs_events.txt) \
    || { echo "per-figure event or switch counts differ from scripts/figs_events.txt: simulated behaviour, or the process chain, changed" >&2; exit 1; }

echo "== go test -bench (1 iteration, compile + smoke) =="
go test -run=NONE -bench=. -benchtime=1x ./...

# perf/ is a nested module (it must build from exported API only), so none of
# the ./... stages above reach it. Its tests hold the golden-table diff, the
# host-share accounting and the BENCHMARK.json == -spec lockstep; kdlint
# runs from inside the module (which resolves kafkadirect/cmd/kdlint through
# its replace directive); the smoke run drives the same entry point the
# benchmark driver uses (build products land in the git-ignored
# .bench_build/).
echo "== perf module (vet, test, kdlint, smoke run) =="
(cd perf && go vet . && go test . && go run kafkadirect/cmd/kdlint ./...)
bash perf/run.sh --workload produce_small --seed 1 --seconds 1 --trace 0 --short | tail -n 1
# run.sh builds with -mod=mod, which lets the go command rewrite a module file
# it finds wanting; a PR outside perf/ may not change either, by hand or so.
git diff --exit-code -- go.mod perf/go.mod \
    || { echo "building the benchmark rewrote a go.mod" >&2; exit 1; }

echo "all checks passed"
