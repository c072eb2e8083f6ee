#!/bin/sh
# SLO snapshot: boots gpaserve with deliberately tight capacity,
# drives it with gpaload at roughly 2-3x what that capacity absorbs
# (bursts, dropped connections, and slow stream readers mixed in), and
# commits the resulting report as SLO_<date>.json in the repo root,
# next to the BENCH_*.json performance snapshots.
#
# With -peers N (N > 1) the same drill runs against an N-node cluster:
# every peer serves the same registry, placement forwards jobs to
# owners, gpaload spreads arrivals round-robin across all peers, and
# partway through the run one peer is SIGKILLed so the snapshot shows
# the cluster degrading node by node — paced refusals and conn errors,
# never a bare 5xx. The report lands in SLO_<date>_cluster.json.
#
# gpaload exits non-zero if any daemon broke the overload contract
# during the run: any 5xx outside the 503 shed/drain protocol, any
# 429/503 without a Retry-After pacing hint, or any result divergence
# between identical queries. A prior snapshot of the same kind is named
# in the output so reviewers can diff the trajectory by eye — the
# snapshots are small on purpose.
#
# Usage: slo.sh [-peers N]
#
# Environment:
#   DURATION    gpaload arrival window (default 10s)
#   RATE        open-loop arrival rate per second (default 15, 30 cluster)
#   KILL_AFTER  cluster mode: when to SIGKILL a peer (default 6s)
#   OUT         output file (default SLO_YYYY-MM-DD[_cluster].json)
set -eu

cd "$(dirname "$0")/.."

PEERS=1
while [ $# -gt 0 ]; do
    case "$1" in
    -peers) PEERS="$2"; shift 2 ;;
    *) echo "usage: $0 [-peers N]" >&2; exit 2 ;;
    esac
done

DURATION="${DURATION:-10s}"
if [ "$PEERS" -gt 1 ]; then
    RATE="${RATE:-30}"
    KILL_AFTER="${KILL_AFTER:-6s}"
    OUT="${OUT:-SLO_$(date -u +%Y-%m-%d)_cluster.json}"
    PREV="$(ls -1 SLO_*_cluster.json 2>/dev/null | grep -vx "$OUT" | sort | tail -n 1 || true)"
else
    RATE="${RATE:-15}"
    OUT="${OUT:-SLO_$(date -u +%Y-%m-%d).json}"
    PREV="$(ls -1 SLO_*.json 2>/dev/null | grep -v '_cluster\.json$' | grep -vx "$OUT" | sort | tail -n 1 || true)"
fi

tmpdir="$(mktemp -d)"
daemon_pids=""
cleanup() {
    for pid in $daemon_pids; do
        if kill -0 "$pid" 2>/dev/null; then
            kill -TERM "$pid" 2>/dev/null || true
            wait "$pid" 2>/dev/null || true
        fi
    done
    rm -rf "$tmpdir"
}
trap cleanup EXIT

go build -o "$tmpdir/gpaserve" ./cmd/gpaserve
go build -o "$tmpdir/gpaload" ./cmd/gpaload

# Tight capacity on purpose: one worker per node, a short queue, and
# queries that take ~100-200ms each on the default engine (quest:80:3000
# at 0.002 support: ~90ms of pipeline mining and ~51k itemsets to
# stream), so the offered load is a small multiple of what the fleet
# can absorb and the snapshot exercises the sojourn controller rather
# than idle daemons.
# Both the result cache and the state dir are off: a cached answer or a
# checkpoint-resumed run would complete in microseconds and quietly
# deflate the load. (No spaces inside these values — the variable is
# word-split on purpose.)
DATASET_FLAGS="-dataset hot=quest:80:3000:10:1 -dataset warm=quest:80:3000:10:2 -dataset cold=quest:80:3000:10:3"

if [ "$PEERS" -le 1 ]; then
    # shellcheck disable=SC2086
    "$tmpdir/gpaserve" $DATASET_FLAGS \
        -workers 1 -queue 6 -mem-mb 512 -cache-mb 0 \
        -sojourn-target 500ms -sojourn-interval 1s -stream-write-timeout 2s \
        -port-file "$tmpdir/port" \
        >"$tmpdir/daemon.log" 2>&1 &
    daemon_pids="$!"

    for _ in $(seq 1 100); do
        [ -s "$tmpdir/port" ] && break
        sleep 0.1
    done
    addr="$(cat "$tmpdir/port")"
    [ -n "$addr" ] || { echo "gpaserve never came up"; cat "$tmpdir/daemon.log"; exit 1; }

    "$tmpdir/gpaload" -target "http://$addr" \
        -duration "$DURATION" -rate "$RATE" \
        -burst 10 -burst-every 2s \
        -relative-support 0.002 \
        -drop-frac 0.1 -slow-frac 0.1 -slow-delay 100ms \
        -retries 4 -seed 1 -out "$OUT"
else
    # The peer list must be known before any daemon boots, so free
    # ports are reserved up front rather than discovered via -port-file.
    PORTS="$(python3 - "$PEERS" <<'EOF'
import socket, sys
socks = []
for _ in range(int(sys.argv[1])):
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    socks.append(s)
print(" ".join(str(s.getsockname()[1]) for s in socks))
for s in socks:
    s.close()
EOF
)"
    PEER_CSV=""
    for P in $PORTS; do
        PEER_CSV="${PEER_CSV:+$PEER_CSV,}http://127.0.0.1:$P"
    done

    KILL_PID=""
    for P in $PORTS; do
        # shellcheck disable=SC2086
        "$tmpdir/gpaserve" $DATASET_FLAGS \
            -listen "127.0.0.1:$P" \
            -workers 1 -queue 6 -mem-mb 512 -cache-mb 0 \
            -sojourn-target 500ms -sojourn-interval 1s -stream-write-timeout 2s \
            -peers "$PEER_CSV" -self "http://127.0.0.1:$P" -replication 2 \
            -probe-interval 200ms -probe-timeout 1s -suspect-after 2 -recover-after 2 \
            -port-file "$tmpdir/port.$P" \
            >"$tmpdir/daemon.$P.log" 2>&1 &
        KILL_PID=$!
        daemon_pids="$daemon_pids $KILL_PID"
    done
    for P in $PORTS; do
        for _ in $(seq 1 100); do
            [ -s "$tmpdir/port.$P" ] && break
            sleep 0.1
        done
        [ -s "$tmpdir/port.$P" ] || { echo "peer on :$P never came up"; cat "$tmpdir/daemon.$P.log"; exit 1; }
    done

    # KILL_PID is the last-booted peer; gpaload SIGKILLs it mid-run and
    # keeps driving the survivors. Refusals from the dead peer surface
    # as conn errors, forwarded jobs it owned fail over — neither may
    # become a 5xx or an unpaced refusal anywhere in the fleet.
    "$tmpdir/gpaload" -targets "$PEER_CSV" -spread rr \
        -duration "$DURATION" -rate "$RATE" \
        -burst 10 -burst-every 2s \
        -relative-support 0.002 \
        -drop-frac 0.1 -slow-frac 0.1 -slow-delay 100ms \
        -kill-after "$KILL_AFTER" -kill-cmd "kill -9 $KILL_PID" \
        -retries 4 -seed 1 -out "$OUT"
fi

if [ -n "$PREV" ]; then
    echo "prior snapshot for comparison: $PREV"
fi
echo "wrote $OUT"
