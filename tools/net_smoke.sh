#!/usr/bin/env bash
# Loopback smoke test for the network front door: starts adp_netserver on
# an ephemeral port, drives one scripted adp_netclient session covering
# DB registration, pipelined REQ, server-push STREAM, CANCEL, and
# METRICS, and fails on any non-zero exit. Then runs the same script
# through the stdin front end (adp_server) and fails unless every REQ
# answer (status, feasible, exact, cost, output_count, tuples) equals the
# TCP client's. Run from a build directory containing the three binaries
# (or pass it as $1).
set -euo pipefail

build_dir="${1:-.}"
server="$build_dir/adp_netserver"
client="$build_dir/adp_netclient"
batch="$build_dir/adp_server"
for bin in "$server" "$client" "$batch"; do
  [ -x "$bin" ] || { echo "missing $bin" >&2; exit 1; }
done

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"; [ -n "${server_pid:-}" ] && kill "$server_pid" 2>/dev/null || true' EXIT

# The server serves until its stdin reaches EOF; a FIFO held open on fd 9
# keeps it alive until the trap fires.
mkfifo "$workdir/stdin"
"$server" --port=0 --workers=2 <"$workdir/stdin" >"$workdir/out" &
server_pid=$!
exec 9>"$workdir/stdin"

# First stdout line is "listening on <host>:<port>".
port=""
for _ in $(seq 1 100); do
  port="$(sed -n 's/^listening on .*:\([0-9]*\)$/\1/p' "$workdir/out")"
  [ -n "$port" ] && break
  kill -0 "$server_pid" 2>/dev/null || { echo "server died:" >&2; cat "$workdir/out" >&2; exit 1; }
  sleep 0.1
done
[ -n "$port" ] || { echo "server never reported a port" >&2; exit 1; }

cat >"$workdir/requests.txt" <<'EOF'
DB d1 R1=11,21/12,22/13,23 R2=21,31/22,32/22,33/23,33 R3=31,41/32,43/33,43
REQ d1 2 Q(A,B,C,E) :- R1(A,B), R2(B,C), R3(C,E)
REQ d1 3 Q(A,B,C,E) :- R1(A,B), R2(B,C), R3(C,E)
STREAM d1 3 Q(A,B,C,E) :- R1(A,B), R2(B,C), R3(C,E)
STATS
CANCEL
METRICS
EOF

"$client" --port="$port" "$workdir/requests.txt" >"$workdir/client_out"

# The session must have produced real answers, pushed stream frames, and
# the metrics text.
grep -q '"status":"OK"' "$workdir/client_out"
grep -q '"end":true' "$workdir/client_out"
grep -q '"cancelled":' "$workdir/client_out"
grep -q 'adp_net_connections_total' "$workdir/client_out"

# Clean shutdown: close the server's stdin and wait for exit 0.
exec 9>&-
wait "$server_pid"

# Front-end equivalence: both front ends resolve the script through the same
# session and formatters, so their REQ answers must match field for field.
# (STATS drains every REQ before CANCEL in both, so nothing is cancelled.)
"$batch" --workers=2 "$workdir/requests.txt" >"$workdir/batch_out"
python3 - "$workdir/batch_out" "$workdir/client_out" <<'PY'
import json
import sys

FIELDS = ("status", "feasible", "exact", "cost", "output_count", "tuples")


def answers(path):
    out = []
    for line in open(path):
        if line.startswith("{"):
            obj = json.loads(line)
            if obj.get("req") is not None:
                out.append([obj.get(f) for f in FIELDS])
    return out


batch, net = answers(sys.argv[1]), answers(sys.argv[2])
if not batch or batch != net:
    sys.exit("front ends disagree:\n adp_server: %s\n adp_netclient: %s"
             % (batch, net))
PY
echo "net smoke OK (port $port)"
