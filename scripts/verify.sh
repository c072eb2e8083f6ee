#!/bin/sh
# Full verification: vet, then the whole test suite under the race
# detector (this includes the fault-injection and failover tests, which
# exercise retry/failover paths concurrently with gpusim's goroutine
# threads).
set -eux

cd "$(dirname "$0")/.."

go vet ./...

# Formatting gate: every tracked Go file must be gofmt-clean.
test -z "$(gofmt -l $(git ls-files '*.go'))"

# Pinned staticcheck, when the module cache or network can supply it.
# Offline environments (no proxy access, tool not pre-fetched) skip it
# rather than fail — unless GPA_CI=1, where the toolchain is expected
# to be able to supply it and a skip would silently drop coverage.
STATICCHECK_VERSION=2024.1.1
if go run "honnef.co/go/tools/cmd/staticcheck@$STATICCHECK_VERSION" -version >/dev/null 2>&1; then
    go run "honnef.co/go/tools/cmd/staticcheck@$STATICCHECK_VERSION" ./...
elif [ "${GPA_CI:-0}" = "1" ]; then
    echo "staticcheck $STATICCHECK_VERSION unavailable but GPA_CI=1; failing" >&2
    exit 1
else
    echo "staticcheck $STATICCHECK_VERSION unavailable (offline); skipping"
fi

go test -race ./...

# The served-path benchmark (perfbench/) is a Go module of its own, so
# the root `go test ./...` never builds it. Vet and short-test it here,
# so an API change that breaks the benchmark fails verification rather
# than the next benchmark run.
(cd perfbench && go vet ./... && go test -short ./...)

# Benchmark smoke: every benchmark (including the CPU_TEST and
# work-stealing pipeline macro benchmarks) must run one iteration
# cleanly.
go test -run='^$' -bench=. -benchtime=1x ./...

# Alloc-regression gate: the pipeline's arena discipline holds
# steady-state mining to a few dozen allocations per T40I10D100K run
# (~41 measured, ~70 on a one-op run; 55,278 before the arenas). Each
# op includes the run's own transposition of the frequent items, three
# allocations: the slab, its vectors and the item index. The ceiling
# of 2000 absorbs one-shot warmup noise (pool misses on a cold run)
# while still catching any real return of per-candidate allocation.
ALLOC_CEILING=2000
ALLOCS=$(go test -run='^$' -bench='^BenchmarkMinePipeline$/shape=T40I10D100K/workers=4$' \
    -benchmem -benchtime=1x ./internal/apriori/ \
    | awk '/workers=4/ { print $(NF-1); exit }')
[ -n "$ALLOCS" ]
[ "$ALLOCS" -le "$ALLOC_CEILING" ] || {
    echo "alloc gate: BenchmarkMinePipeline workers=4 reports $ALLOCS allocs/op (ceiling $ALLOC_CEILING)" >&2
    exit 1
}
echo "alloc gate: $ALLOCS allocs/op <= $ALLOC_CEILING: OK"

# Served-shape alloc gate: BenchmarkMineServedShapes mines the four
# shapes of perfbench's miss workload the way gpaserve runs a job
# (MineContext with an OnGeneration hook, new pipeline per job), pinned
# to 2 workers by -cpu so the per-worker scratch does not scale with
# the host. Each job transposes only its frequent items, into one
# slab, and counts each candidate with one AND-popcount loop that keeps
# no scratch. Measured per op over five runs of this command, at most
# KiB in allocations: T40I10D100K 493 in 66-71, accidents 531 in
# 68-71, pumsb 761 in 151-163, chess 748 in 186-211; with every item
# transposed one vector at a time they were 1,694 in 1,970, 2,713 in
# 1,035, 2,170 in 4,410 and 784 in 383. The count ceilings leave about
# 1.5x headroom over the highest first figure, the byte ceilings
# 1.6-2.3x. All sit below the second figures except chess's bytes: its
# full layout is 19 KB, so only its count can tell the two apart. The
# count catches a return of per-item transposition, the bytes a
# transposition of every item.
SERVED=$(go test -run='^$' -bench='^BenchmarkMineServedShapes$' -benchmem -benchtime=1x -cpu 2 .)
echo "$SERVED" | awk '
    BEGIN {
        kib["T40I10D100K"] = 1000; allocs["T40I10D100K"] = 110
        kib["accidents"] = 1200;   allocs["accidents"] = 110
        kib["pumsb"] = 1500;       allocs["pumsb"] = 250
        kib["chess"] = 1200;       allocs["chess"] = 320
    }
    /^BenchmarkMineServedShapes\/shape=/ {
        shape = $1
        sub(/^BenchmarkMineServedShapes\/shape=/, "", shape)
        sub(/-[0-9]+$/, "", shape)
        for (i = 2; i <= NF; i++) {
            if ($i == "B/op") bytes = $(i - 1)
            if ($i == "allocs/op") n = $(i - 1)
        }
        seen[shape] = 1
        verdict = "OK"
        if (!(shape in kib) || bytes > kib[shape] * 1024 || n > allocs[shape]) {
            verdict = "FAIL"
            bad = 1
        }
        printf "served-shape gate: %s %.0f KiB/op in %d allocs/op (ceilings %d KiB, %d allocs): %s\n",
            shape, bytes / 1024, n, kib[shape], allocs[shape], verdict
    }
    END {
        for (shape in kib) {
            if (!(shape in seen)) {
                printf "served-shape gate: no result for %s\n", shape
                bad = 1
            }
        }
        exit bad
    }'

# Fuzz smoke: each hardened parser, and the differential check of every
# algorithm and its streamed generations against the oracle, fuzzes for
# 10s (one target per invocation, as go test requires).
go test -fuzz='^FuzzRead$' -fuzztime=10s ./internal/resultio/
go test -fuzz='^FuzzRead$' -fuzztime=10s ./internal/dataset/
go test -fuzz='^FuzzReadNamed$' -fuzztime=10s ./internal/dataset/
go test -fuzz='^FuzzMineMatchesOracle$' -fuzztime=10s .

# Kill/resume smoke: SIGKILL a checkpointing mine mid-run, resume it,
# and require the itemsets, and the final checkpoint file, to be
# bit-identical to an uninterrupted run's, for a level-wise miner and
# for the default pipeline. A resumed run whose boundaries dropped its
# resume point would leave a shorter final checkpoint. cpu-bitset is
# killed after 0.8s (if the kill lands after completion the resume
# fast-forwards from the final checkpoint; the equality check is
# timing-independent). The pipeline mines depth-first, so its first
# boundary passes late in the run: it is killed by the
# checkpoint.after-rename crashpoint right after that first durable
# boundary, while deeper generations are still in flight.
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
go build -o "$SMOKE/gpapriori" ./cmd/gpapriori
for ALGO in cpu-bitset pipeline; do
    MINE="-dataset accidents -scale 0.3 -minsup 0.25 -algo $ALGO -json -top 0"
    rm -f "$SMOKE/run.ckpt" "$SMOKE/oracle.ckpt"

    "$SMOKE/gpapriori" $MINE -checkpoint "$SMOKE/oracle.ckpt" > "$SMOKE/oracle.json"

    if [ "$ALGO" = pipeline ]; then
        set +e
        GPAPRIORI_CRASHPOINT=checkpoint.after-rename \
            "$SMOKE/gpapriori" $MINE -checkpoint "$SMOKE/run.ckpt" > /dev/null 2>&1
        KILL_STATUS=$?
        set -e
        [ "$KILL_STATUS" -eq 137 ]
        [ -s "$SMOKE/run.ckpt" ]
    else
        "$SMOKE/gpapriori" $MINE -checkpoint "$SMOKE/run.ckpt" > /dev/null 2>&1 &
        PID=$!
        sleep 0.8
        kill -9 "$PID" 2>/dev/null || true
        wait "$PID" || true
    fi

    "$SMOKE/gpapriori" $MINE -checkpoint "$SMOKE/run.ckpt" -resume > "$SMOKE/resumed.json"

    # Timings differ run to run; everything else must match exactly.
    grep -v '_seconds"' "$SMOKE/oracle.json"  > "$SMOKE/oracle.cmp"
    grep -v '_seconds"' "$SMOKE/resumed.json" > "$SMOKE/resumed.cmp"
    diff -u "$SMOKE/oracle.cmp" "$SMOKE/resumed.cmp"
    cmp "$SMOKE/oracle.ckpt" "$SMOKE/run.ckpt"
    echo "kill/resume smoke ($ALGO): OK"
done

# Fault-failover smoke: losing a device of a pool, a hang the watchdog
# kills, and routing a hybrid CPU share must not change a single byte
# of the result, and a fault-free pool run must report no fault
# activity.
FAULT="-dataset chess -scale 0.3 -minsup 0.8 -algo gpapriori -result-only"
"$SMOKE/gpapriori" $FAULT > "$SMOKE/clean.txt"
"$SMOKE/gpapriori" $FAULT -devices 2 -faults dev1:dead@gen2 > "$SMOKE/failover.txt"
"$SMOKE/gpapriori" $FAULT -faults dev0:hang=5@gen2 > "$SMOKE/hang.txt"
"$SMOKE/gpapriori" $FAULT -cpushare 0.25 > "$SMOKE/hybrid.txt"
[ -s "$SMOKE/clean.txt" ]
cmp "$SMOKE/clean.txt" "$SMOKE/failover.txt"
cmp "$SMOKE/clean.txt" "$SMOKE/hang.txt"
cmp "$SMOKE/clean.txt" "$SMOKE/hybrid.txt"
# The 5 s hang is killed at the 1 s watchdog and retried once after a
# 1 ms backoff: that is the whole modeled recovery cost.
"$SMOKE/gpapriori" -dataset chess -scale 0.3 -minsup 0.8 -algo gpapriori \
    -faults dev0:hang=5@gen2 -json -top 0 > "$SMOKE/hang.json"
python3 - "$SMOKE/hang.json" <<'PY'
import json, sys
f = json.load(open(sys.argv[1]))["fault_stats"]
if f["hangs"] != 1 or f["retries"] != 1 or abs(f["recovery_seconds"] - 1.001) > 1e-9:
    sys.exit("watchdog run: fault_stats %s, want hangs 1, retries 1, recovery_seconds 1.001" % f)
PY
"$SMOKE/gpapriori" -dataset chess -scale 0.3 -minsup 0.8 -algo gpapriori \
    -devices 2 -json -top 0 > "$SMOKE/pool.json"
if grep -q fault_stats "$SMOKE/pool.json"; then
    echo "fault-free pool run reported fault_stats" >&2
    exit 1
fi
echo "fault-failover smoke: OK"

# Server request-decoder fuzz smoke: malformed or absurd requests must
# become typed 400s — never a panic, never an admitted job.
go test -fuzz='^FuzzDecodeMineRequest$' -fuzztime=10s ./internal/server/

# Serving smoke: boot the real daemon on a random port, mine the same
# dataset over HTTP and offline, and require the canonical results to
# be byte-identical; require the second identical request to hit the
# result cache, the README's raw-API body to be accepted, and every
# request to mine with the pipeline whatever engine it names; then
# SIGTERM and require a clean drain (exit 0).
go build -o "$SMOKE/gpaserve" ./cmd/gpaserve
"$SMOKE/gpaserve" -listen 127.0.0.1:0 -dataset chess=gen:chess:0.3 \
    -mem-mb 256 -cache-mb 16 -state-dir "$SMOKE/state" \
    -port-file "$SMOKE/port" > "$SMOKE/gpaserve.log" 2>&1 &
SRV_PID=$!
for _ in $(seq 1 100); do
    [ -s "$SMOKE/port" ] && break
    sleep 0.1
done
[ -s "$SMOKE/port" ]
ADDR=$(cat "$SMOKE/port")

"$SMOKE/gpapriori" -serve-url "http://$ADDR" -dataset chess \
    -minsup 0.8 -result-only > "$SMOKE/served.txt"
"$SMOKE/gpapriori" -dataset chess -scale 0.3 \
    -minsup 0.8 -result-only > "$SMOKE/offline.txt"
diff -u "$SMOKE/offline.txt" "$SMOKE/served.txt"

"$SMOKE/gpapriori" -serve-url "http://$ADDR" -dataset chess \
    -minsup 0.8 -quiet -serve-stats > "$SMOKE/stats.txt"
grep -q 'hits=1' "$SMOKE/stats.txt"

# The README's raw-API example body must be one the daemon accepts: a
# 200 (a cache hit, here) or 202 whose job names the dataset. A request
# naming another engine is accepted and mined with the pipeline, and
# an unknown engine name is a typed 400.
python3 - "$ADDR" <<'PY'
import json, sys, urllib.error, urllib.request
def post(body):
    req = urllib.request.Request("http://%s/v1/jobs" % sys.argv[1], data=body,
                                 headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as err:
        return err.code, json.load(err)
status, info = post(b'{"dataset":"chess","relative_support":0.8}')
assert status in (200, 202) and info["dataset"] == "chess", (status, info)
status, info = post(b'{"dataset":"chess","relative_support":0.8,"algorithm":"eclat"}')
assert status in (200, 202) and info["algorithm"] == "pipeline", (status, info)
status, info = post(b'{"dataset":"chess","relative_support":0.8,"algorithm":"quantum"}')
assert status == 400 and info["code"] == "bad_request", (status, info)
PY

kill -TERM "$SRV_PID"
wait "$SRV_PID"
grep -q 'drained' "$SMOKE/gpaserve.log"
echo "serving smoke: OK"

# Crashpoint chaos smoke: arm a daemon to SIGKILL itself at its first
# checkpoint save, drive it with the retrying client, restart it on the
# same address, and require the client-recovered result to be
# byte-identical to the offline run. The full per-crashpoint matrix
# lives in the cmd/gpaserve torture test; this proves the wiring end to
# end from the shipped binaries. SLOW is a query the pipeline mines for
# about 2 s on chess x1.0 (203,995 itemsets), so the cluster smoke
# below can kill an owner mid-job with it.
SLOW="-minsup 0.3"
GPAPRIORI_CRASHPOINT=checkpoint.after-rename "$SMOKE/gpaserve" \
    -listen 127.0.0.1:0 -dataset d=gen:chess:1.0 -state-dir "$SMOKE/chaos" \
    -port-file "$SMOKE/chaosport" > "$SMOKE/chaos1.log" 2>&1 &
CRASH_PID=$!
for _ in $(seq 1 100); do
    [ -s "$SMOKE/chaosport" ] && break
    sleep 0.1
done
[ -s "$SMOKE/chaosport" ]
CHAOS_ADDR=$(cat "$SMOKE/chaosport")

"$SMOKE/gpapriori" -serve-url "http://$CHAOS_ADDR" -dataset d \
    $SLOW -result-only \
    -retry-max 10 -retry-base-ms 100 -retry-jitter 0.2 -retry-seed 1 \
    > "$SMOKE/chaos-served.txt" &
CLIENT_PID=$!

# The daemon must die by its own SIGKILL (wait reports 137).
set +e
wait "$CRASH_PID"
CRASH_STATUS=$?
set -e
[ "$CRASH_STATUS" -eq 137 ]

"$SMOKE/gpaserve" -listen "$CHAOS_ADDR" -dataset d=gen:chess:1.0 \
    -state-dir "$SMOKE/chaos" > "$SMOKE/chaos2.log" 2>&1 &
SRV2_PID=$!

wait "$CLIENT_PID"

"$SMOKE/gpapriori" -dataset chess -scale 1.0 \
    $SLOW -result-only > "$SMOKE/chaos-offline.txt"
diff -u "$SMOKE/chaos-offline.txt" "$SMOKE/chaos-served.txt"

kill -TERM "$SRV2_PID"
wait "$SRV2_PID"
echo "crashpoint chaos smoke: OK"

# Overload smoke: boot a deliberately tiny daemon (one worker, short
# queue, no cache so every job mines for real — the default pipeline
# needs ~90ms and finds ~51k itemsets per query at 0.002 support on
# these datasets), drive it with gpaload
# well above capacity with chaos mixed in, and hold it to the overload
# contract: gpaload exits non-zero on any 5xx outside the 503
# shed/drain protocol, any 429/503 without a Retry-After pacing hint,
# or any result divergence between identical queries. The daemon must
# then still drain cleanly — overload must not corrupt shutdown.
go build -o "$SMOKE/gpaload" ./cmd/gpaload
"$SMOKE/gpaserve" -listen 127.0.0.1:0 \
    -dataset hot=quest:80:3000:10:1 -dataset cold=quest:80:3000:10:2 \
    -workers 1 -queue 4 -cache-mb 0 -mem-mb 512 \
    -sojourn-target 300ms -sojourn-interval 600ms \
    -port-file "$SMOKE/loadport" > "$SMOKE/overload.log" 2>&1 &
LOAD_SRV_PID=$!
for _ in $(seq 1 100); do
    [ -s "$SMOKE/loadport" ] && break
    sleep 0.1
done
[ -s "$SMOKE/loadport" ]
LOAD_ADDR=$(cat "$SMOKE/loadport")

"$SMOKE/gpaload" -target "http://$LOAD_ADDR" \
    -duration 5s -rate 12 -burst 8 -burst-every 2s \
    -relative-support 0.002 -retries 3 \
    -drop-frac 0.1 -slow-frac 0.1 -slow-delay 50ms \
    -seed 1 -out "$SMOKE/slo.json"

# The report must show the daemon actually refused work under the
# burst (paced, not errored) and that nothing slipped through unpaced.
python3 - "$SMOKE/slo.json" <<'PY'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["arrivals"] > 0 and r["completed"] > 0, r
assert r["refusals"] > 0, "never oversubscribed: %s" % r
assert r["server_errors"] == 0, r
assert r["retry_after_missing"] == 0, r
assert r["result_hash_mismatches"] == 0, r
assert r["failed"] == 0, r
PY

kill -TERM "$LOAD_SRV_PID"
wait "$LOAD_SRV_PID"
grep -q 'drained' "$SMOKE/overload.log"
echo "overload smoke: OK"

# Multi-node cluster smoke: boot a 3-peer cluster (replication 2),
# submit through a peer that does not own the dataset and require the
# forwarded result to be byte-identical to the offline run; resubmit
# through the co-owner and require the answer to come from a peer cache
# replica; then kill -9 the primary owner mid-job and require the
# retrying client — still talking to the non-owner — to recover the
# identical result, the surviving owner to report degraded, and the
# survivors to drain cleanly.
CL_PORTS=$(python3 - <<'PY'
import socket
socks = [socket.socket() for _ in range(3)]
for s in socks:
    s.bind(("127.0.0.1", 0))
print(" ".join(str(s.getsockname()[1]) for s in socks))
for s in socks:
    s.close()
PY
)
set -- $CL_PORTS
CL_PEERS="http://127.0.0.1:$1,http://127.0.0.1:$2,http://127.0.0.1:$3"
for P in "$@"; do
    "$SMOKE/gpaserve" -listen "127.0.0.1:$P" -dataset d=gen:chess:1.0 \
        -state-dir "$SMOKE/cl$P" -cache-mb 16 \
        -peers "$CL_PEERS" -self "http://127.0.0.1:$P" -replication 2 \
        -probe-interval 100ms -suspect-after 2 -recover-after 1 \
        -port-file "$SMOKE/clport$P" > "$SMOKE/cl$P.log" 2>&1 &
done
for P in "$@"; do
    for _ in $(seq 1 100); do
        [ -s "$SMOKE/clport$P" ] && break
        sleep 0.1
    done
    [ -s "$SMOKE/clport$P" ]
done

# Placement is deterministic; read it from /statsz and classify the
# peers: primary owner, secondary owner, non-owner.
CL_ROLES=$(python3 - "$@" <<'PY'
import json, sys, urllib.request
ports = sys.argv[1:4]
urls = ["http://127.0.0.1:%s" % p for p in ports]
st = json.load(urllib.request.urlopen(urls[0] + "/statsz"))
owners = st["cluster"]["placement"]["d"]
non = [p for p, u in zip(ports, urls) if u not in owners][0]
print(ports[urls.index(owners[0])], ports[urls.index(owners[1])], non)
PY
)
set -- $CL_ROLES
CL_PRIM=$1; CL_SEC=$2; CL_NON=$3

# 1. Forwarded submit through the non-owner == offline bytes.
"$SMOKE/gpapriori" -serve-url "http://127.0.0.1:$CL_NON" -dataset d \
    -minsup 0.8 -result-only > "$SMOKE/cluster-served.txt"
"$SMOKE/gpapriori" -dataset chess -scale 1.0 \
    -minsup 0.8 -result-only > "$SMOKE/cluster-offline.txt"
diff -u "$SMOKE/cluster-offline.txt" "$SMOKE/cluster-served.txt"
python3 - "$CL_NON" <<'PY'
import json, sys, urllib.request
st = json.load(urllib.request.urlopen("http://127.0.0.1:%s/statsz" % sys.argv[1]))
assert st["cluster"]["forwarded_jobs"] >= 1, st["cluster"]
PY

# 2. Resubmit through the co-owner: answered from the primary's cache
# over the peer-cache protocol, installing a local replica.
"$SMOKE/gpapriori" -serve-url "http://127.0.0.1:$CL_SEC" -dataset d \
    -minsup 0.8 -result-only > "$SMOKE/cluster-resub.txt"
diff -u "$SMOKE/cluster-offline.txt" "$SMOKE/cluster-resub.txt"
python3 - "$CL_SEC" <<'PY'
import json, sys, urllib.request
st = json.load(urllib.request.urlopen("http://127.0.0.1:%s/statsz" % sys.argv[1]))
assert st["cluster"]["cache_peer_hits"] >= 1, st["cluster"]
PY

# 3. Kill -9 the primary owner mid-job (the SLOW query mines for about
# 2 s, so it is still running a second after submit); the retrying
# client through the non-owner must still recover the byte-identical
# result (the job fails over to a surviving replica).
"$SMOKE/gpapriori" -serve-url "http://127.0.0.1:$CL_NON" -dataset d \
    $SLOW -result-only \
    -retry-max 10 -retry-base-ms 100 -retry-jitter 0.2 -retry-seed 1 \
    > "$SMOKE/cluster-chaos.txt" &
CL_CLIENT_PID=$!
sleep 1
CL_PRIM_PID=$(pgrep -f -- "-listen 127.0.0.1:$CL_PRIM")
kill -9 "$CL_PRIM_PID"
wait "$CL_CLIENT_PID"
diff -u "$SMOKE/chaos-offline.txt" "$SMOKE/cluster-chaos.txt"

# 4. The surviving co-owner now holds the only replica of a dataset it
# owns: its health must degrade, not lie with "ok".
python3 - "$CL_SEC" <<'PY'
import json, sys, time, urllib.request
deadline = time.time() + 10
while True:
    h = json.load(urllib.request.urlopen("http://127.0.0.1:%s/healthz" % sys.argv[1]))
    if h["status"] == "degraded":
        assert "d" in h["cluster"]["degraded_datasets"], h
        break
    assert time.time() < deadline, "survivor never degraded: %s" % h
    time.sleep(0.2)
PY

# 5. Survivors drain cleanly.
for P in "$CL_SEC" "$CL_NON"; do
    PID=$(pgrep -f -- "-listen 127.0.0.1:$P")
    kill -TERM "$PID"
    while kill -0 "$PID" 2>/dev/null; do sleep 0.1; done
    grep -q 'drained' "$SMOKE/cl$P.log"
done
echo "cluster smoke: OK"

# Project-specific invariant linter (internal/analysis suite): any
# finding — nondeterminism source, bare device op on a fault-aware
# path, broken ctx chain, untyped error check, lock held across a
# blocking call, leaked goroutine, mixed atomic/plain field access —
# fails the build. It runs last, so a finding still fails the script
# but cannot keep the suite, the gates, the fuzzers and the smokes
# above from running. The stage is timed: the CFG/dataflow engine must
# stay cheap enough to run on every verification.
GPALINT_START=$(date +%s)
go run ./cmd/gpalint ./...
echo "gpalint sweep: $(( $(date +%s) - GPALINT_START ))s"

# The machine-readable output must stay valid JSON with the documented
# shape (a clean sweep is {"findings": [], "count": 0}), and the
# suppression audit must pass: every //gpalint:ignore names a
# registered analyzer and carries a reason.
go run ./cmd/gpalint -json ./... | jq -e '.findings == [] and .count == 0' > /dev/null
go run ./cmd/gpalint -ignores ./...
