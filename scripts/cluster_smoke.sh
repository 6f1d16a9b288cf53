#!/usr/bin/env bash
# Live smoke of a TCP cluster run from the one server binary: two
# `mobieyes-server -cluster worker` processes and a `-cluster router` over
# them with tracing and costs on, probed over HTTP (/debug/,
# /debug/cluster?format=json, /debug/events?n=5) and over the admin port
# (install, help, HEALTH) with a bash /dev/tcp redirect. Fails on any
# non-200 answer or empty body; stops all three processes on exit.
#
#   scripts/cluster_smoke.sh        # needs 127.0.0.1 ports 7181-7185 free
set -euo pipefail

dir=$(mktemp -d)
pids=()
cleanup() {
	for p in "${pids[@]}"; do kill "$p" 2>/dev/null || true; done
	wait 2>/dev/null || true
	rm -rf "$dir"
}
trap cleanup EXIT

# waitlog FILE TEXT: wait up to 10 s for a started process to log TEXT.
waitlog() {
	for _ in $(seq 100); do
		grep -q "$2" "$1" && return 0
		sleep 0.1
	done
	echo "cluster_smoke: timed out waiting for '$2' in $1:" >&2
	cat "$1" >&2
	return 1
}

go build -o "$dir/mobieyes-server" ./cmd/mobieyes-server
for port in 7181 7182; do
	"$dir/mobieyes-server" -cluster worker -addr 127.0.0.1:$port >"$dir/w$port.log" 2>&1 &
	pids+=($!)
	waitlog "$dir/w$port.log" "cluster worker on"
done
"$dir/mobieyes-server" -cluster router -workers 127.0.0.1:7181,127.0.0.1:7182 \
	-addr 127.0.0.1:7183 -admin 127.0.0.1:7184 -metrics-addr 127.0.0.1:7185 \
	-trace-events 4096 -costs >"$dir/router.log" 2>&1 &
pids+=($!)
waitlog "$dir/router.log" "objects on"

exec 3<>/dev/tcp/127.0.0.1/7184
printf 'install 1 3 1000\nhelp\nHEALTH\nquit\n' >&3
admin=$(cat <&3)
exec 3<&-
for want in "qid 1" "TRACE" "health "; do
	if ! grep -q "$want" <<<"$admin"; then
		echo "cluster_smoke: admin reply lacks '$want':" >&2
		echo "$admin" >&2
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
echo "$admin"
