#!/usr/bin/env bash
# Server smoke test: start `scast serve` on an ephemeral port, run a
# scripted `scast query` pass covering every request type, run the same
# pass again, and assert (a) the second pass added zero cache misses and
# (b) the server shuts down cleanly with its summary line. Then exercise
# the resource-governance paths: a budgeted query trips a typed
# `edge_limit` error on a cold config but a warm hit ignores the budget,
# and a byte-capped server evicts under load yet still answers for the
# evicted program. Finally, the live-editing path: `scast update` pushes a
# one-function edit against a cached session and the reply must show
# constraint reuse, the post-edit answer, and slice-precise invalidation
# of cached demand entries. `scast query --binary` (the removed binary
# codec's flag) must fail with a usage error. Then the durable serving
# paths: a SIGKILLed server with a snapshot directory must restart warm
# (zero compile/solve misses, one counted restore), and an update
# accepted between snapshots must survive a SIGKILL via
# write-ahead-journal replay. A 200,000-deep nesting bomb and a `load`
# whose C source nests 2,000 parentheses must come back as typed
# bad_requests while the server keeps serving.
set -euo pipefail

cd "$(dirname "$0")/.."
cargo build --release -p structcast-driver
SCAST=target/release/scast

LOG=$(mktemp)
"$SCAST" serve --addr 127.0.0.1:0 --threads 4 >"$LOG" &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true' EXIT

# The first stdout line is `listening on HOST:PORT`.
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/^listening on //p' "$LOG" | head -n1)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "server never reported its address"; cat "$LOG"; exit 1; }
echo "server at $ADDR"

query_pass() {
    "$SCAST" query --addr "$ADDR" - <<'EOF'
{"op":"load","name":"bst"}
{"op":"load","name":"x","source":"int v, *w; void f(void) { w = &v; }"}
{"op":"points_to","program":"bst","var":"g_tree"}
{"op":"points_to","program":"bst","var":"g_tree","model":"offsets","layout":"lp64"}
{"op":"alias","program":"bst","a":"g_tree","b":"g_tree"}
{"op":"modref","program":"bst"}
{"op":"compare_models","program":"bst"}
EOF
}

misses() {
    # Sum of program_misses + solve_misses from a stats response.
    "$SCAST" query --addr "$ADDR" '{"op":"stats"}' |
        tr ',{' '\n\n' |
        awk -F': ' '/"(program|solve)_misses"/ { sum += $2 } END { print sum+0 }'
}

PASS1=$(query_pass)
echo "$PASS1" | grep -vq '"ok": false' || { echo "pass 1 had errors:"; echo "$PASS1"; exit 1; }
[ "$(echo "$PASS1" | wc -l)" -eq 7 ] || { echo "expected 7 responses"; echo "$PASS1"; exit 1; }
COLD=$(misses)
[ "$COLD" -gt 0 ] || { echo "cold pass should have missed"; exit 1; }

PASS2=$(query_pass)
[ "$PASS1" = "$PASS2" ] || {
    echo "warm pass responses differ from cold pass:"
    diff <(echo "$PASS1") <(echo "$PASS2") || true
    exit 1
}
WARM=$(misses)
[ "$WARM" -eq "$COLD" ] || { echo "warm pass added misses: $COLD -> $WARM"; exit 1; }
echo "warm pass: identical responses, zero new misses (total misses: $WARM)"

# A budget that cannot fit any fixpoint trips a typed error — but only on
# a cold config (packed32 is not cached yet); the same impossible budget
# against a warm config is served from cache and succeeds.
COLD_BUDGET=$("$SCAST" query --addr "$ADDR" \
    '{"op":"points_to","program":"bst","var":"g_tree","layout":"packed32","max_edges":1}')
echo "$COLD_BUDGET" | grep -q '"kind": "edge_limit"' || {
    echo "cold budgeted query should trip edge_limit:"; echo "$COLD_BUDGET"; exit 1
}
WARM_BUDGET=$("$SCAST" query --addr "$ADDR" \
    '{"op":"points_to","program":"bst","var":"g_tree","max_edges":1}')
echo "$WARM_BUDGET" | grep -q '"ok": true' || {
    echo "warm budgeted query should hit the cache:"; echo "$WARM_BUDGET"; exit 1
}
echo "budgeted query: cold trips edge_limit, warm hit ignores the budget"

# Demand mode round trip: the sliced solve answers the same query with the
# same points-to set, tagged with its slice metrics.
DEMAND=$("$SCAST" query --addr "$ADDR" \
    '{"op":"points_to","program":"bst","var":"g_tree","mode":"demand"}')
echo "$DEMAND" | grep -q '"ok": true' || { echo "demand query failed:"; echo "$DEMAND"; exit 1; }
echo "$DEMAND" | grep -q '"mode": "demand"' || {
    echo "demand reply must carry the mode marker:"; echo "$DEMAND"; exit 1
}
echo "$DEMAND" | grep -q '"slice_statements"' || {
    echo "demand reply must carry slice metrics:"; echo "$DEMAND"; exit 1
}
EXHAUSTIVE=$("$SCAST" query --addr "$ADDR" '{"op":"points_to","program":"bst","var":"g_tree"}')
D_SET=$(echo "$DEMAND" | sed 's/.*"points_to": \(\[[^]]*\]\).*/\1/')
E_SET=$(echo "$EXHAUSTIVE" | sed 's/.*"points_to": \(\[[^]]*\]\).*/\1/')
[ -n "$D_SET" ] && [ "$D_SET" = "$E_SET" ] || {
    echo "demand points_to ($D_SET) must byte-equal exhaustive ($E_SET)"; exit 1
}
echo "demand round trip: points_to byte-equal to exhaustive ($D_SET)"

# NDJSON is the only wire codec: `--binary` (like any unknown flag) is a
# usage error with a non-zero exit, never a request line sent to the server.
if BINARY_ERR=$("$SCAST" query --addr "$ADDR" --binary \
    '{"op":"points_to","program":"bst","var":"g_tree"}' 2>&1); then
    echo "scast query --binary must fail with a usage error:"; echo "$BINARY_ERR"; exit 1
fi
echo "$BINARY_ERR" | grep -q 'unknown flag `--binary`' || {
    echo "scast query --binary must name the unknown flag:"; echo "$BINARY_ERR"; exit 1
}
echo "scast query --binary: rejected with a usage error"

# Live-editing update round trip: load a two-function session, warm a full
# summary and two demand answers, edit only g() via `scast update`, and
# assert the reply: the untouched function's constraints are reused, and
# the session serves the post-edit answer in both modes, the demand
# queries for p and q warm from the migrated summary. The update releases
# the pre-edit version, so its hash then answers like an unknown program.
LIVE_LOAD=$("$SCAST" query --addr "$ADDR" \
    '{"op":"load","name":"live","source":"int x, y, *p, *q;\nvoid f(void) { p = &x; }\nvoid g(void) { q = &y; }"}')
echo "$LIVE_LOAD" | grep -q '"ok": true' || { echo "live session load failed"; exit 1; }
BEFORE=$(echo "$LIVE_LOAD" | sed 's/.*"hash": "\([0-9a-f]*\)".*/\1/')
"$SCAST" query --addr "$ADDR" '{"op":"points_to","program":"live","var":"q"}' |
    grep -q '"points_to": \["y"\]' || { echo "pre-edit answer wrong"; exit 1; }
for v in p q; do
    "$SCAST" query --addr "$ADDR" \
        "{\"op\":\"points_to\",\"program\":\"live\",\"var\":\"$v\",\"mode\":\"demand\"}" |
        grep -q '"ok": true' || { echo "demand warm-up for $v failed"; exit 1; }
done
EDIT=$(mktemp)
printf 'int x, y, *p, *q;\nvoid f(void) { p = &x; }\nvoid g(void) { q = &x; }\n' >"$EDIT"
UPDATE=$("$SCAST" update --addr "$ADDR" --program live "$EDIT")
rm -f "$EDIT"
echo "$UPDATE" | grep -q '"ok": true' || { echo "update failed:"; echo "$UPDATE"; exit 1; }
REUSED=$(echo "$UPDATE" | tr ',{' '\n\n' | awk -F': ' '/"reused_fns"/ { print $2+0 }')
[ "$REUSED" -gt 0 ] || { echo "update must reuse the untouched function:"; echo "$UPDATE"; exit 1; }
echo "$UPDATE" | grep -q '"resolve_s"' || { echo "update must report resolve_s:"; echo "$UPDATE"; exit 1; }
"$SCAST" query --addr "$ADDR" '{"op":"points_to","program":"live","var":"q"}' |
    grep -q '"points_to": \["x"\]' || { echo "post-edit answer wrong"; exit 1; }
for v in p q; do
    DEMAND=$("$SCAST" query --addr "$ADDR" \
        "{\"op\":\"points_to\",\"program\":\"live\",\"var\":\"$v\",\"mode\":\"demand\"}")
    echo "$DEMAND" | grep -q '"points_to": \["x"\]' || {
        echo "post-edit demand answer for $v wrong:"; echo "$DEMAND"; exit 1
    }
    echo "$DEMAND" | grep -q '"cached": true' || {
        echo "post-edit demand answer for $v must be warm:"; echo "$DEMAND"; exit 1
    }
done
RELEASED=$("$SCAST" query --addr "$ADDR" "{\"op\":\"points_to\",\"program\":\"$BEFORE\",\"var\":\"q\"}")
echo "$RELEASED" | grep -q '"kind": "bad_request"' &&
    echo "$RELEASED" | grep -q "unknown program \`$BEFORE\`" || {
    echo "the pre-edit hash $BEFORE must be released by the update:"; echo "$RELEASED"; exit 1
}
echo "update round trip: reused_fns=$REUSED, post-edit answers correct, demand warm from the migrated summary, pre-edit hash released"

# Nesting bomb: one 200,000-deep NDJSON line must get a typed bad_request
# (the decoders bound nesting) instead of overflowing a worker's stack and
# aborting the process; the server keeps answering afterwards.
nesting_bomb() {
    local addr=$1 reply
    reply=$(printf '%*s\n' 200000 '' | tr ' ' '[' | "$SCAST" query --addr "$addr" -)
    echo "$reply" | grep -q '"bad_request"' || {
        echo "nesting bomb must get bad_request:"; echo "$reply" | cut -c1-300; exit 1
    }
    echo "$reply" | grep -q 'nesting deeper than' || {
        echo "bad_request must name the nesting bound:"; echo "$reply"; exit 1
    }
}
nesting_bomb "$ADDR"
"$SCAST" query --addr "$ADDR" '{"op":"stats"}' | grep -q '"ok": true' || {
    echo "server stopped answering after a nesting bomb"; exit 1
}
echo "nesting bomb: typed bad_request, server still serving"
# C-source bomb: a `load` nesting 2,000 parentheses must get a typed
# bad_request naming line and column (the parser's nesting budget) rather
# than overflow the worker's stack.
OPEN=$(printf '%*s' 2000 '' | tr ' ' '(')
CLOSE=$(printf '%*s' 2000 '' | tr ' ' ')')
DEEP=$("$SCAST" query --addr "$ADDR" \
    "{\"op\":\"load\",\"name\":\"deep\",\"source\":\"int x, *p; void f(void) { p = ${OPEN}&x${CLOSE}; }\"}")
echo "$DEEP" | grep -q '"bad_request"' && echo "$DEEP" | grep -q 'nesting deeper than 128 levels at line 1, column' || {
    echo "C-source bomb must get bad_request naming its position:"; echo "$DEEP" | cut -c1-300; exit 1
}
"$SCAST" query --addr "$ADDR" '{"op":"stats"}' | grep -q '"ok": true' || {
    echo "server stopped answering after a C-source bomb"; exit 1
}
echo "C-source bomb: typed bad_request naming its position, server still serving"

"$SCAST" query --addr "$ADDR" '{"op":"shutdown"}' | grep -q '"shutdown": true'
wait "$SERVER_PID"
trap - EXIT
grep -q "structcast-server: served" "$LOG" || { echo "missing summary line"; cat "$LOG"; exit 1; }
echo "clean shutdown:"
tail -n1 "$LOG"
rm -f "$LOG"

# Eviction round-trip: a server whose cache holds only a couple of entries
# must evict while a sweep of corpus programs loads, and still answer a
# query for the evicted first program (corpus programs reload on miss).
LOG2=$(mktemp)
SCAST_MAX_CACHE_BYTES=60000 "$SCAST" serve --addr 127.0.0.1:0 --threads 2 >"$LOG2" &
SERVER2_PID=$!
trap 'kill "$SERVER2_PID" 2>/dev/null || true' EXIT
ADDR2=""
for _ in $(seq 1 100); do
    ADDR2=$(sed -n 's/^listening on //p' "$LOG2" | head -n1)
    [ -n "$ADDR2" ] && break
    sleep 0.1
done
[ -n "$ADDR2" ] || { echo "capped server never reported its address"; cat "$LOG2"; exit 1; }

for name in bst list-utils matrix stack-calc queue-sim hashmap; do
    "$SCAST" query --addr "$ADDR2" "{\"op\":\"load\",\"name\":\"$name\"}" |
        grep -q '"ok": true' || { echo "load $name failed"; exit 1; }
done
STATS=$("$SCAST" query --addr "$ADDR2" '{"op":"stats"}')
EVICTED=$(echo "$STATS" | tr ',{' '\n\n' | awk -F': ' '/"program_evictions"/ { print $2+0 }')
[ "$EVICTED" -gt 0 ] || { echo "capped sweep should have evicted:"; echo "$STATS"; exit 1; }
"$SCAST" query --addr "$ADDR2" '{"op":"points_to","program":"bst","var":"g_tree"}' |
    grep -q '"ok": true' || { echo "re-query of evicted program failed"; exit 1; }
echo "eviction round-trip: $EVICTED programs evicted, evicted program still answers"

"$SCAST" query --addr "$ADDR2" '{"op":"shutdown"}' | grep -q '"shutdown": true'
wait "$SERVER2_PID"
trap - EXIT
grep -q "structcast-server: served" "$LOG2" || { echo "missing summary line"; cat "$LOG2"; exit 1; }
tail -n1 "$LOG2"
rm -f "$LOG2"

# Snapshot round-trip: warm a server, snapshot, SIGKILL it (no graceful
# save), restart from the same directory — the restarted process must give
# byte-identical answers while reporting zero compile/solve misses and
# exactly one counted restore.
SNAPDIR=$(mktemp -d)
LOG3=$(mktemp)
"$SCAST" serve --addr 127.0.0.1:0 --threads 2 --snapshot "$SNAPDIR" >"$LOG3" &
SERVER3_PID=$!
trap 'kill "$SERVER3_PID" 2>/dev/null || true' EXIT
ADDR3=""
for _ in $(seq 1 100); do
    ADDR3=$(sed -n 's/^listening on //p' "$LOG3" | head -n1)
    [ -n "$ADDR3" ] && break
    sleep 0.1
done
[ -n "$ADDR3" ] || { echo "snapshot server never reported its address"; cat "$LOG3"; exit 1; }

"$SCAST" query --addr "$ADDR3" '{"op":"load","name":"bst"}' |
    grep -q '"ok": true' || { echo "snapshot warm load failed"; exit 1; }
PRE_KILL=$("$SCAST" query --addr "$ADDR3" '{"op":"points_to","program":"bst","var":"g_tree"}')
echo "$PRE_KILL" | grep -q '"ok": true' || { echo "snapshot warm query failed"; exit 1; }
"$SCAST" query --addr "$ADDR3" '{"op":"points_to","program":"bst","var":"g_tree","mode":"demand"}' |
    grep -q '"ok": true' || { echo "snapshot warm demand failed"; exit 1; }
"$SCAST" query --addr "$ADDR3" '{"op":"snapshot"}' |
    grep -q '"ok": true' || { echo "explicit snapshot op failed"; exit 1; }
[ -f "$SNAPDIR/cache.scsnap" ] || { echo "snapshot file missing"; ls "$SNAPDIR"; exit 1; }

kill -9 "$SERVER3_PID"
wait "$SERVER3_PID" 2>/dev/null || true
trap - EXIT

LOG4=$(mktemp)
"$SCAST" serve --addr 127.0.0.1:0 --threads 2 --snapshot "$SNAPDIR" >"$LOG4" &
SERVER4_PID=$!
trap 'kill "$SERVER4_PID" 2>/dev/null || true' EXIT
ADDR4=""
for _ in $(seq 1 100); do
    ADDR4=$(sed -n 's/^listening on //p' "$LOG4" | head -n1)
    [ -n "$ADDR4" ] && break
    sleep 0.1
done
[ -n "$ADDR4" ] || { echo "restarted server never reported its address"; cat "$LOG4"; exit 1; }

POST_KILL=$("$SCAST" query --addr "$ADDR4" '{"op":"points_to","program":"bst","var":"g_tree"}')
[ "$PRE_KILL" = "$POST_KILL" ] || {
    echo "restarted server's answer diverged:"
    diff <(echo "$PRE_KILL") <(echo "$POST_KILL") || true
    exit 1
}
STATS4=$("$SCAST" query --addr "$ADDR4" '{"op":"stats"}')
echo "$STATS4" | grep -q '"program_misses": 0' || {
    echo "restart recompiled something:"; echo "$STATS4"; exit 1
}
echo "$STATS4" | grep -q '"solve_misses": 0' || {
    echo "restart re-solved something:"; echo "$STATS4"; exit 1
}
echo "$STATS4" | grep -q '"restores": 1' || {
    echo "restart must count one snapshot restore:"; echo "$STATS4"; exit 1
}
echo "snapshot round-trip: SIGKILL + restart warm, byte-identical answer, zero misses"

# WAL round-trip: an update accepted BETWEEN snapshots lives only in the
# journal. SIGKILL the server before any snapshot covers the edit; the
# restarted process must replay the WAL and serve the post-edit answer.
"$SCAST" query --addr "$ADDR4" \
    '{"op":"load","name":"wal-live","source":"int x, y, *p; void f(void) { p = &x; }"}' |
    grep -q '"ok": true' || { echo "WAL session load failed"; exit 1; }
"$SCAST" query --addr "$ADDR4" '{"op":"snapshot"}' |
    grep -q '"ok": true' || { echo "pre-edit snapshot failed"; exit 1; }
WAL_UPDATE=$("$SCAST" query --addr "$ADDR4" \
    '{"op":"update","program":"wal-live","source":"int x, y, *p; void f(void) { p = &y; }"}')
echo "$WAL_UPDATE" | grep -q '"ok": true' || { echo "WAL update failed:"; echo "$WAL_UPDATE"; exit 1; }
echo "$WAL_UPDATE" | grep -q '"durable": true' || {
    echo "update must be acked durable (journaled + fsync'd):"; echo "$WAL_UPDATE"; exit 1
}
[ -f "$SNAPDIR/wal" ] || { echo "WAL file missing"; ls "$SNAPDIR"; exit 1; }

kill -9 "$SERVER4_PID"
wait "$SERVER4_PID" 2>/dev/null || true
trap - EXIT

LOG5=$(mktemp)
"$SCAST" serve --addr 127.0.0.1:0 --threads 2 --snapshot "$SNAPDIR" >"$LOG5" &
SERVER5_PID=$!
trap 'kill "$SERVER5_PID" 2>/dev/null || true' EXIT
ADDR5=""
for _ in $(seq 1 100); do
    ADDR5=$(sed -n 's/^listening on //p' "$LOG5" | head -n1)
    [ -n "$ADDR5" ] && break
    sleep 0.1
done
[ -n "$ADDR5" ] || { echo "WAL-restarted server never reported its address"; cat "$LOG5"; exit 1; }

"$SCAST" query --addr "$ADDR5" '{"op":"points_to","program":"wal-live","var":"p"}' |
    grep -q '"points_to": \["y"\]' || {
    echo "post-edit answer did not survive the SIGKILL"; exit 1
}
STATS5=$("$SCAST" query --addr "$ADDR5" '{"op":"stats"}')
echo "$STATS5" | grep -q '"replayed": 1' || {
    echo "restart must replay exactly the journaled edit:"; echo "$STATS5"; exit 1
}
echo "WAL round-trip: SIGKILL between snapshots, journaled edit replayed, post-edit answer served"

"$SCAST" query --addr "$ADDR5" '{"op":"shutdown"}' | grep -q '"shutdown": true'
wait "$SERVER5_PID"
trap - EXIT
rm -rf "$SNAPDIR" "$LOG3" "$LOG4" "$LOG5"
