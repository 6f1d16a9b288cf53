#!/usr/bin/env bash
# Live smoke of a TCP cluster run from the one server binary: two
# `mobieyes-server -cluster worker` processes with tracing on (so each ships
# telemetry batches to the router) and a `-cluster router` over them with
# tracing and costs on, probed over HTTP (/debug/,
# /debug/cluster?format=json, /debug/events?n=5) and over the admin port
# (install, help, HEALTH) with a bash /dev/tcp redirect. Two objects then
# fill the query's result; within 10 s HEALTH must count at least one
# batch from each worker, and the router's /metrics must show
# mobieyes_server_fot_size 1 for the node that holds focal 1, a gauge only
# the worker's batches carry. The router then takes an admin `snapshot`, every
# process is killed, and fresh workers plus `-cluster router -restore` must
# answer `result 1` exactly as before. Last, the plain server (no -cluster:
# the router over one in-process node) restores the same snapshot, must
# answer `result 1` alike, and its `nodes` view must list one node. First of
# all, a router asked for `-stream` must exit 2 (a usage error) without
# dialing its worker: workers publish no result events. Fails on any
# non-200 answer, empty body, missing batch or gauge, changed result, wrong
# node count or other exit code; stops every process on exit.
#
#   scripts/cluster_smoke.sh        # needs 127.0.0.1 ports 7181-7185 free
set -euo pipefail

dir=$(mktemp -d)
pids=()
stop() {
	for p in "${pids[@]}"; do kill "$p" 2>/dev/null || true; done
	wait 2>/dev/null || true
	pids=()
}
trap 'stop; rm -rf "$dir"' EXIT

# waitlog FILE TEXT: wait up to 10 s for a started process to log TEXT.
waitlog() {
	for _ in $(seq 100); do
		grep -qs "$2" "$1" && return 0
		sleep 0.1
	done
	echo "cluster_smoke: timed out waiting for '$2' in $1:" >&2
	cat "$1" >&2
	return 1
}

# admin CMD...: send each command to the router's admin port, then quit;
# prints the replies.
admin() {
	exec 3<>/dev/tcp/127.0.0.1/7184
	printf '%s\n' "$@" quit >&3
	cat <&3
	exec 3<&-
}

# start_cluster [ROUTER_ARGS...]: two fresh workers, then the router. The
# old logs go first, so waitlog cannot match a previous run's line.
start_cluster() {
	rm -f "$dir"/w*.log "$dir/router.log"
	for port in 7181 7182; do
		"$dir/mobieyes-server" -cluster worker -addr 127.0.0.1:$port -trace-events 1024 >"$dir/w$port.log" 2>&1 &
		pids+=($!)
		waitlog "$dir/w$port.log" "cluster worker on"
	done
	"$dir/mobieyes-server" -cluster router -workers 127.0.0.1:7181,127.0.0.1:7182 \
		-addr 127.0.0.1:7183 -admin 127.0.0.1:7184 -metrics-addr 127.0.0.1:7185 \
		-trace-events 4096 -costs "$@" >"$dir/router.log" 2>&1 &
	pids+=($!)
	waitlog "$dir/router.log" "objects on"
}

go build -o "$dir/mobieyes-server" ./cmd/mobieyes-server
go build -o "$dir/mobieyes-object" ./cmd/mobieyes-object

rc=0
"$dir/mobieyes-server" -cluster router -workers 127.0.0.1:1 -stream 2>"$dir/stream.log" || rc=$?
if [ "$rc" -ne 2 ]; then
	echo "cluster_smoke: -cluster router -stream exited $rc, want 2:" >&2
	cat "$dir/stream.log" >&2
	exit 1
fi

start_cluster

reply=$(admin 'install 1 3 1000' help HEALTH)
for want in "qid 1" "TRACE" "health "; do
	if ! grep -q "$want" <<<"$reply"; then
		echo "cluster_smoke: admin reply lacks '$want':" >&2
		echo "$reply" >&2
		exit 1
	fi
done

for path in /debug/ "/debug/cluster?format=json" "/debug/events?n=5"; do
	body=$(curl -fsS "http://127.0.0.1:7185$path")
	if [ -z "$body" ]; then
		echo "cluster_smoke: empty body from $path" >&2
		exit 1
	fi
	echo "== $path"
	echo "$body"
done
echo "== admin"
echo "$reply"

# Snapshot and restore: two objects join the query, the router writes a
# snapshot, and a new cluster restored from it must hold the same result.
for spec in "1 50" "2 51"; do
	set -- $spec
	"$dir/mobieyes-object" -addr 127.0.0.1:7183 -oid "$1" -x "$2" -y 50 >"$dir/o$1.log" 2>&1 &
	pids+=($!)
done
before=
for _ in $(seq 100); do
	before=$(admin 'result 1')
	[ "$before" = "result 1 1 2" ] && break
	sleep 0.1
done
if [ "$before" != "result 1 1 2" ]; then
	echo "cluster_smoke: result before the snapshot is '$before', want 'result 1 1 2'" >&2
	exit 1
fi

# Telemetry crosses processes: both workers' batches reach the router, and
# the focal's node reports its FOT size through them.
shipped=
for _ in $(seq 100); do
	health=$(admin HEALTH)
	focal=$(admin nodes | sed -n 's/^node \([0-9]*\) .* focals 1 .*/\1/p')
	metrics=$(curl -fsS http://127.0.0.1:7185/metrics)
	if [ "$(grep -cE '^node [01] .* batches [1-9]' <<<"$health")" -eq 2 ] && [ -n "$focal" ] &&
		grep -qx "mobieyes_server_fot_size{node=\"$focal\"} 1" <<<"$metrics"; then
		shipped=1
		break
	fi
	sleep 0.1
done
echo "== telemetry"
echo "$health"
grep '^mobieyes_server_fot_size' <<<"$metrics" || true
if [ -z "$shipped" ]; then
	echo "cluster_smoke: no batch from both workers, or no fot_size 1 for focal 1's node '$focal', within 10 s" >&2
	exit 1
fi
if [ "$(admin "snapshot $dir/snap.mobs")" != ok ]; then
	echo "cluster_smoke: admin snapshot failed" >&2
	exit 1
fi
stop
start_cluster -restore "$dir/snap.mobs"
after=$(admin 'result 1')
echo "== restore"
echo "before: $before"
echo "after:  $after"
if [ "$after" != "$before" ]; then
	echo "cluster_smoke: restored cluster answers '$after', want '$before'" >&2
	exit 1
fi

# The same snapshot restored into the plain server.
stop
"$dir/mobieyes-server" -addr 127.0.0.1:7183 -admin 127.0.0.1:7184 \
	-restore "$dir/snap.mobs" >"$dir/plain.log" 2>&1 &
pids+=($!)
waitlog "$dir/plain.log" "objects on"
plain=$(admin 'result 1')
nodes=$(admin nodes)
echo "== plain server"
echo "result: $plain"
echo "$nodes"
if [ "$plain" != "$before" ]; then
	echo "cluster_smoke: restored plain server answers '$plain', want '$before'" >&2
	exit 1
fi
if [ "$(grep -c '^node ' <<<"$nodes")" -ne 1 ]; then
	echo "cluster_smoke: plain server's nodes view does not list exactly one node" >&2
	exit 1
fi
