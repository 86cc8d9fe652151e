#!/bin/sh
# End-to-end smoke test of the sepeserve daemon over a real TCP socket.
#
# Exercises the full serving life cycle the unit tests cover only
# in-process: start the daemon with a plan cache, register a format,
# poll readiness, hash single and batch keys (the batch answer checked
# byte for byte against the single-key hashes), check that the status
# endpoint reports the generation the hash answers carry, export the
# plan, restart the daemon, verify the warm start served the cached
# plan (same hash, no re-synthesis), import the exported plan under a
# new name, and shut down cleanly on SIGTERM. Any failed step exits
# non-zero.
#
# Usage: scripts/serve_smoke.sh [port]   (default 18321)
set -eu

PORT="${1:-18321}"
BASE="http://127.0.0.1:$PORT"
DIR="$(mktemp -d)"
BIN="$DIR/sepeserve"
CACHE="$DIR/plans"
LOG="$DIR/serve.log"
PID=""

cleanup() {
    [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
    rm -rf "$DIR"
}
trap cleanup EXIT

fail() {
    echo "serve-smoke: FAIL: $*" >&2
    echo "--- daemon log ---" >&2
    cat "$LOG" >&2 || true
    exit 1
}

# wait_ready NAME: poll the status endpoint until the tenant is ready.
wait_ready() {
    i=0
    while [ "$i" -lt 100 ]; do
        state=$(curl -sf "$BASE/v1/formats/$1" | sed -n 's/.*"state": "\([a-z]*\)".*/\1/p')
        [ "$state" = "ready" ] && return 0
        [ "$state" = "failed" ] && fail "tenant $1 failed synthesis"
        i=$((i + 1))
        sleep 0.1
    done
    fail "tenant $1 not ready after 10s"
}

# hash_of TENANT KEY: print the tenant's hash of one key (hex).
hash_of() {
    curl -sf "$BASE/v1/hash/$1" -d "{\"key\":\"$2\"}" \
        | sed -n 's/^{"generation":[0-9]*,"hash":"\([0-9a-f]*\)"}$/\1/p'
}

start_daemon() {
    "$BIN" -addr "127.0.0.1:$PORT" -cache "$CACHE" -quick >>"$LOG" 2>&1 &
    PID=$!
    i=0
    while ! curl -sf "$BASE/livez" >/dev/null 2>&1; do
        i=$((i + 1))
        [ "$i" -gt 100 ] && fail "daemon did not come up"
        kill -0 "$PID" 2>/dev/null || fail "daemon exited during startup"
        sleep 0.1
    done
}

stop_daemon() {
    kill -TERM "$PID"
    i=0
    while kill -0 "$PID" 2>/dev/null; do
        i=$((i + 1))
        [ "$i" -gt 100 ] && fail "daemon did not shut down within 10s of SIGTERM"
        sleep 0.1
    done
    wait "$PID" 2>/dev/null || fail "daemon exited non-zero on SIGTERM"
    PID=""
}

echo "serve-smoke: building"
go build -o "$BIN" ./cmd/sepeserve

echo "serve-smoke: first start"
start_daemon

echo "serve-smoke: register + readiness"
curl -sf -X POST "$BASE/v1/formats" \
    -d '{"name":"ssn","regex":"[0-9]{3}-[0-9]{2}-[0-9]{4}"}' >/dev/null \
    || fail "registration rejected"
wait_ready ssn

echo "serve-smoke: hash"
H1=$(hash_of ssn 123-45-6789)
[ -n "$H1" ] || fail "single-key hash returned no value"
H1B=$(hash_of ssn 987-65-4321)
[ -n "$H1B" ] || fail "single-key hash returned no value"
# The batch answer is pinned byte for byte, trailing newline included.
printf '{"generation":1,"hashes":["%s","%s"]}\n' "$H1" "$H1B" >"$DIR/batch.want"
curl -sf "$BASE/v1/hash/ssn" -d '{"keys":["123-45-6789","987-65-4321"]}' \
    -o "$DIR/batch.got" || fail "batch hash failed"
cmp -s "$DIR/batch.want" "$DIR/batch.got" \
    || fail "batch answer $(cat "$DIR/batch.got"), want $(cat "$DIR/batch.want")"

echo "serve-smoke: status generation"
# Status reports the generation hash answers carry, and no other.
STATUS=$(curl -sf "$BASE/v1/formats/ssn") || fail "status request failed"
SG=$(printf '%s\n' "$STATUS" | sed -n 's/^  "generation": \([0-9]*\),$/\1/p')
AG=$(curl -sf "$BASE/v1/hash/ssn" -d '{"key":"123-45-6789"}' \
    | sed -n 's/^{"generation":\([0-9]*\),.*/\1/p')
[ -n "$SG" ] && [ "$SG" = "$AG" ] \
    || fail "status generation '$SG', hash answers carry '$AG'"
if printf '%s\n' "$STATUS" | grep -q swap_generation; then
    fail "status still reports swap_generation"
fi

echo "serve-smoke: export"
curl -sf "$BASE/v1/formats/ssn/plan" -o "$DIR/ssn.sepeplan" || fail "plan export failed"
[ -s "$DIR/ssn.sepeplan" ] || fail "exported plan is empty"
[ -s "$CACHE/ssn.sepeplan" ] || fail "plan cache entry missing"

echo "serve-smoke: restart + warm start from cache"
stop_daemon
start_daemon
grep -q "preloaded 1 tenant" "$LOG" || fail "warm start did not preload from the cache"
wait_ready ssn
H2=$(hash_of ssn 123-45-6789)
[ "$H1" = "$H2" ] || fail "hash changed across restart ($H1 -> $H2)"
curl -sf "$BASE/v1/formats/ssn" | grep -q '"source": "cache"' \
    || fail "restarted tenant was not served from the cache"

echo "serve-smoke: import under a new name"
curl -sf -X PUT --data-binary "@$DIR/ssn.sepeplan" \
    "$BASE/v1/formats/ssn2/plan" >/dev/null || fail "plan import failed"
H3=$(hash_of ssn2 123-45-6789)
[ "$H1" = "$H3" ] || fail "imported plan hashes differently ($H1 -> $H3)"

echo "serve-smoke: clean shutdown"
stop_daemon

echo "serve-smoke: PASS"
