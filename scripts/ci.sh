#!/usr/bin/env bash
# Tier-1 CI gate: build, vet, race-detected tests, and the repo's own
# static-analysis suite (cmd/kcvet). Any failure fails the gate.
#
# Usage: scripts/ci.sh            # from anywhere inside the repo
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> go test -race ./..."
go test -race ./...

# kcvet publishes its findings as a JSON build artifact whether or not
# the gate passes; CI systems archive /tmp/kcvet-findings.json.
echo "==> go run ./cmd/kcvet -json ./... (artifact: /tmp/kcvet-findings.json)"
if ! go run ./cmd/kcvet -json ./... >/tmp/kcvet-findings.json; then
    echo "==> kcvet gate FAILED:" >&2
    cat /tmp/kcvet-findings.json >&2
    exit 1
fi

# Perf-regression gate over the committed benchmark snapshots: the two
# newest BENCH_<date>.json must not differ by >15% ns/op or >10%
# allocs/op on any shared benchmark. Warns and passes with <2 snapshots.
echo "==> benchdiff: committed BENCH snapshots within thresholds"
scripts/benchdiff.sh

# Parallel-executor gate: couple built with the race detector must survive
# a 4-worker campaign — the scheduler, cache, and shared obs sinks are
# exercised concurrently, so any data race in the pipeline fails here.
echo "==> race: couple -parallel 4 (race-built)"
go build -race -o /tmp/kc-couple-race ./cmd/couple
/tmp/kc-couple-race -bench BT -grid 8 -trips 2 -procs 4 -chains 2,5 -blocks 2 \
    -parallel 4 >/dev/null
rm -f /tmp/kc-couple-race

# Cache-reuse gate: a second run against a warm -cache-dir must be served
# from the cache (>= 1 hit on stderr) and print a byte-identical study.
echo "==> cache: warm -cache-dir reuse is hit-served and byte-identical"
go build -o /tmp/kc-couple ./cmd/couple
rm -rf /tmp/kc-cache-gate
/tmp/kc-couple -bench BT -grid 8 -trips 2 -procs 4 -chains 2 -blocks 1 \
    -cache-dir /tmp/kc-cache-gate >/tmp/kc-cache-cold.out 2>/dev/null
/tmp/kc-couple -bench BT -grid 8 -trips 2 -procs 4 -chains 2 -blocks 1 \
    -cache-dir /tmp/kc-cache-gate >/tmp/kc-cache-warm.out 2>/tmp/kc-cache-warm.err
if ! grep -Eq 'cache hits=[1-9]' /tmp/kc-cache-warm.err; then
    echo "==> cache gate FAILED: warm run reported no cache hits" >&2
    cat /tmp/kc-cache-warm.err >&2
    exit 1
fi
if ! cmp -s /tmp/kc-cache-cold.out /tmp/kc-cache-warm.out; then
    echo "==> cache gate FAILED: cached study differs from the measured one" >&2
    diff /tmp/kc-cache-cold.out /tmp/kc-cache-warm.out >&2 || true
    exit 1
fi
rm -rf /tmp/kc-cache-gate /tmp/kc-cache-cold.out /tmp/kc-cache-warm.out /tmp/kc-cache-warm.err

# Backend-agreement gate: the analytic backend's per-window coupling
# bands must contain the measured coupling values on most windows of the
# seeded BT study. The band is widened to ±60% — the model is structural,
# not precise — and up to 3 of the 6 windows may disagree (tiny-grid
# measurements are noisy); a systematic analytic drift fails the gate.
echo "==> backends: analytic couplings agree with the measured BT study"
go build -o /tmp/kc-couple ./cmd/couple
/tmp/kc-couple -bench BT -grid 8 -trips 2 -procs 4 -chains 2,5 -blocks 2 \
    -backend measured+analytic -analytic-band 0.6 -agree-max 3 >/dev/null

# Chaos gate: the measurement pipeline must degrade, never crash, under a
# fixed-seed fault schedule. Two invariants:
#   1. couple under mild message jitter completes with a report (exit 0);
#   2. npbrun with an injected rank crash exits with a structured error
#      (exit 1) — an uncaught panic would exit 2 and fail the gate.
echo "==> chaos: couple degrades under faults (class S, fixed seed)"
go build -o /tmp/kc-couple ./cmd/couple
go build -o /tmp/kc-npbrun ./cmd/npbrun
/tmp/kc-couple -bench BT -grid 8 -trips 2 -procs 4 -chains 2 -blocks 1 \
    -fault-spec 'delay:p=0.2,mean=100us,jitter=0.5' -fault-seed 7 >/dev/null

echo "==> chaos: npbrun crash fault exits structured, not panicked"
set +e
/tmp/kc-npbrun -bench BT -grid 8 -trips 2 -procs 4 \
    -fault-spec 'crash:rank=2,at=40' -fault-seed 7 >/dev/null 2>/tmp/kc-chaos-err
status=$?
set -e
if [ "$status" -ne 1 ]; then
    echo "==> chaos gate FAILED: npbrun exit status $status, want structured exit 1" >&2
    cat /tmp/kc-chaos-err >&2
    exit 1
fi
if ! grep -q 'rank 2' /tmp/kc-chaos-err; then
    echo "==> chaos gate FAILED: crash report does not name the dead rank" >&2
    cat /tmp/kc-chaos-err >&2
    exit 1
fi
rm -f /tmp/kc-couple /tmp/kc-npbrun /tmp/kc-chaos-err

# Serving gate: kcserved built with the race detector must answer a
# concurrent mixed load from a warm cache — byte-identical /predict
# bodies, zero worlds executed, every response stamped with a trace ID
# and the flight recorder populated (kcload's selfcheck scenario asserts
# both) — and drain cleanly on SIGTERM, flushing a flight dump and an
# access log. kcload is the client, so the gate needs no curl.
echo "==> serve: race-built kcserved answers a warm cache under load"
go build -o /tmp/kc-couple ./cmd/couple
go build -o /tmp/kc-load ./cmd/kcload
go build -race -o /tmp/kc-serve-race ./cmd/kcserved
rm -rf /tmp/kc-serve-cache
rm -f /tmp/kc-serve-flight.json /tmp/kc-serve-access.log
/tmp/kc-couple -bench BT -grid 8 -trips 2 -procs 4 -chains 2,5 -blocks 2 \
    -cache-dir /tmp/kc-serve-cache >/dev/null 2>&1
/tmp/kc-serve-race -addr 127.0.0.1:18640 -cache-dir /tmp/kc-serve-cache \
    -flight-out /tmp/kc-serve-flight.json -log-out /tmp/kc-serve-access.log \
    2>/tmp/kc-serve.err &
serve_pid=$!
if ! /tmp/kc-load -scenario selfcheck -targets 127.0.0.1:18640 \
    -base-query 'bench=BT&grid=8&trips=2&procs=4&chains=2,5&blocks=2' \
    -n 16 -concurrency 16; then
    echo "==> serve gate FAILED: kcload selfcheck" >&2
    cat /tmp/kc-serve.err >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
kill -TERM "$serve_pid"
if ! wait "$serve_pid"; then
    echo "==> serve gate FAILED: kcserved did not exit cleanly on SIGTERM" >&2
    cat /tmp/kc-serve.err >&2
    exit 1
fi
if ! grep -q '"spans"' /tmp/kc-serve-flight.json; then
    echo "==> serve gate FAILED: shutdown left no flight-recorder dump" >&2
    exit 1
fi
if ! grep -q '"trace":"t-' /tmp/kc-serve-access.log; then
    echo "==> serve gate FAILED: access log carries no trace IDs" >&2
    exit 1
fi
rm -rf /tmp/kc-serve-cache /tmp/kc-serve-race /tmp/kc-serve.err /tmp/kc-couple \
    /tmp/kc-load /tmp/kc-serve-flight.json /tmp/kc-serve-access.log

# Non-gating: archive a smoke-scale benchmark run so history accumulates
# in CI logs. Failures here never fail the gate (the tables are timing-
# sensitive and CI hosts are noisy).
echo "==> make bench (non-gating, smoke scale)"
if KC_FAST=1 make bench; then
    echo "==> bench archived"
else
    echo "==> bench failed (non-gating, continuing)"
fi

# Chaos-serve gate: a race-built kcserved with the full guard stack and
# deterministic fault injection must survive kcload's chaos drill — the
# breaker opens on injected measurement failures, fast-fails, probes and
# closes after cooldown; an unanswerable query degrades to a tagged
# nearby answer; an overload burst sheds 503 + Retry-After with the
# serve.shed counter matching the client's tally; 504s answer within the
# budget their body names plus 2s; warm answers stay byte-identical
# throughout; and the service drains with no stuck gauges and exits
# cleanly on SIGTERM. Latency quantiles under chaos are merged into
# today's BENCH file (after make bench, so the archive survives). The drill needs a freshly warmed cache: its own recovery
# probe persists measurements, so a reused cache dir would no longer be
# cold where the drill expects it.
echo "==> chaos-serve: hardened kcserved survives injected faults and overload"
go build -o /tmp/kc-couple ./cmd/couple
go build -o /tmp/kc-load ./cmd/kcload
go build -race -o /tmp/kc-chaos-serve ./cmd/kcserved
rm -rf /tmp/kc-chaos-cache
/tmp/kc-couple -bench BT -grid 8 -trips 2 -procs 4 -chains 2,5 -blocks 2 \
    -cache-dir /tmp/kc-chaos-cache >/dev/null 2>&1
/tmp/kc-chaos-serve -addr 127.0.0.1:18641 -cache-dir /tmp/kc-chaos-cache \
    -measure -measure-workers 2 \
    -deadline 2s -deadline-measure 10s -max-inflight 3 -queue 3 \
    -breaker-failures 2 -breaker-cooldown 300ms -stale 16 \
    -fault-spec 'measure:count=2;diskslow:p=0.3,mean=2ms;handler:delay=4ms,p=0.25' \
    -fault-seed 7 2>/tmp/kc-chaos-serve.err &
chaos_pid=$!
if ! /tmp/kc-load -scenario chaos -targets 127.0.0.1:18641 \
    -base-query 'bench=BT&grid=8&trips=2&procs=4&chains=2,5&blocks=2' \
    -n 16 -concurrency 16 -bench-out "BENCH_$(date +%F).json" -bench-name ChaosServe; then
    echo "==> chaos-serve gate FAILED: kcload chaos drill" >&2
    cat /tmp/kc-chaos-serve.err >&2
    kill "$chaos_pid" 2>/dev/null || true
    exit 1
fi
kill -TERM "$chaos_pid"
if ! wait "$chaos_pid"; then
    echo "==> chaos-serve gate FAILED: kcserved did not exit cleanly on SIGTERM after chaos" >&2
    cat /tmp/kc-chaos-serve.err >&2
    exit 1
fi
rm -rf /tmp/kc-chaos-cache /tmp/kc-chaos-serve /tmp/kc-chaos-serve.err /tmp/kc-couple /tmp/kc-load

# Cluster gate: a race-built 3-node peer-filling fleet over one shared
# cache dir must serve a kcload run — zipf traffic with bursts and a
# mid-run SIGTERM of one node — without a single 5xx or lost request
# (kcload retries a dead listener against the survivors; the fleet
# rehashes the dead node's keys), answer every post-sweep /predict with
# the same bytes whichever node served it, measure each cold key
# exactly once fleet-wide, and drain every node cleanly. The kill lands
# after the deterministic sweep, so every cold key was measured (and
# persisted) before a node dies; the exactly-once count is summed from
# the three shutdown manifests. kcload's latency quantiles are archived
# into today's BENCH file under custom metric keys benchdiff never gates.
echo "==> cluster: 3-node fleet survives a node kill; cold keys measure once fleet-wide"
go build -race -o /tmp/kc-cluster-serve ./cmd/kcserved
go build -o /tmp/kc-load ./cmd/kcload
rm -rf /tmp/kc-cluster-cache /tmp/kc-cluster-metrics*.json /tmp/kc-cluster-node*.err
cluster_peers="127.0.0.1:18651,127.0.0.1:18652,127.0.0.1:18653"
cluster_pids=()
for i in 1 2 3; do
    /tmp/kc-cluster-serve -addr "127.0.0.1:1865$i" -cache-dir /tmp/kc-cluster-cache \
        -measure -peers "$cluster_peers" -self "127.0.0.1:1865$i" -peer-hot 3 \
        -breaker-failures 1 -breaker-cooldown 1h \
        -metrics-out "/tmp/kc-cluster-metrics$i.json" 2>"/tmp/kc-cluster-node$i.err" &
    cluster_pids[$i]=$!
done
if ! /tmp/kc-load -targets "$cluster_peers" -n 240 -keys 6 -concurrency 8 \
    -burst 6 -burst-every 40 -kill "${cluster_pids[2]}@100" -max-5xx 0 \
    -bench-out "BENCH_$(date +%F).json" -bench-name LoadCluster; then
    echo "==> cluster gate FAILED: kcload saw 5xx, lost requests or drifting bodies" >&2
    cat /tmp/kc-cluster-node*.err >&2
    kill "${cluster_pids[1]}" "${cluster_pids[3]}" 2>/dev/null || true
    exit 1
fi
if ! wait "${cluster_pids[2]}"; then
    echo "==> cluster gate FAILED: killed node did not drain cleanly on SIGTERM" >&2
    cat /tmp/kc-cluster-node2.err >&2
    kill "${cluster_pids[1]}" "${cluster_pids[3]}" 2>/dev/null || true
    exit 1
fi
kill -TERM "${cluster_pids[1]}" "${cluster_pids[3]}"
for i in 1 3; do
    if ! wait "${cluster_pids[$i]}"; then
        echo "==> cluster gate FAILED: node $i did not drain cleanly on SIGTERM" >&2
        cat "/tmp/kc-cluster-node$i.err" >&2
        exit 1
    fi
done
cluster_measured=0
for i in 1 2 3; do
    v=$(grep -A1 '"serve.measure.ondemand"' "/tmp/kc-cluster-metrics$i.json" \
        | sed -n 's/.*"value": \([0-9][0-9]*\).*/\1/p')
    cluster_measured=$((cluster_measured + ${v:-0}))
done
if [ "$cluster_measured" -ne 6 ]; then
    echo "==> cluster gate FAILED: fleet measured $cluster_measured cold keys, want exactly 6" >&2
    cat /tmp/kc-cluster-node*.err >&2
    exit 1
fi
rm -rf /tmp/kc-cluster-cache /tmp/kc-cluster-serve /tmp/kc-load \
    /tmp/kc-cluster-metrics*.json /tmp/kc-cluster-node*.err

echo "==> ci: all gates passed"
