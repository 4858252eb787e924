#!/bin/sh
# Load/recovery smoke for cmd/ptmcd: 200 tiny real-simulation jobs across
# both interactive and batch priorities, a SIGKILL mid-flight, a restart —
# and then zero lost jobs, zero duplicate simulations, every artifact
# served. This is the shell-level counterpart of the in-process
# TestLoadKillRestart (internal/server/load_test.go), run against the real
# binary, a real WAL, and a real kill -9.
set -e
cd "$(dirname "$0")/.."

jobs="${1:-200}"
work="$(mktemp -d)"
daemon_pid=""
cleanup() {
	[ -n "$daemon_pid" ] && kill -9 "$daemon_pid" 2>/dev/null || true
	rm -rf "$work"
}
trap cleanup EXIT

go build -o "$work/ptmcd" ./cmd/ptmcd

# boot_daemon DATA_DIR PARALLEL -> sets $daemon_pid and $base (URL).
boot_daemon() {
	rm -f "$work/addr"
	"$work/ptmcd" -addr 127.0.0.1:0 -addr-file "$work/addr" -data "$1" \
		-parallel "$2" -queue $((jobs + 16)) \
		>> "$work/daemon.log" 2>&1 &
	daemon_pid=$!
	i=0
	while [ ! -f "$work/addr" ]; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			echo "smoke_load: daemon never wrote its address file" >&2
			cat "$work/daemon.log" >&2
			exit 1
		fi
		sleep 0.1
	done
	base="http://$(cat "$work/addr")"
}

# One simulation at a time in the first life: the backlog builds behind
# it, so the kill -9 below reliably lands with work queued and in flight.
boot_daemon "$work/data" 1

# Submit the full batch: unique seeds (unique jobs), alternating priority
# classes. Every ack lands in the ledger the restart is judged against.
: > "$work/ids"
n=0
while [ "$n" -lt "$jobs" ]; do
	n=$((n + 1))
	prio=batch
	[ $((n % 2)) -eq 0 ] && prio=interactive
	spec="{\"workload\":\"lbm06\",\"schemes\":[\"ptmc\"],\"cores\":2,\"warmup_instr\":2000,\"measure_instr\":20000,\"seed\":$n,\"priority\":\"$prio\"}"
	"$work/ptmcd" submit -server "$base" -spec "$spec" >> "$work/ids"
done
if [ "$(wc -l < "$work/ids")" -ne "$jobs" ]; then
	echo "smoke_load: only $(wc -l < "$work/ids")/$jobs submissions acked" >&2
	exit 1
fi

# kill -9 mid-flight: no drain, no checkpoint, WAL abandoned as it lies.
# The jobs are tiny, so no sleep — the submit loop itself took long enough
# that a healthy slice is settled and the rest is queued.
kill -9 "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""

# Artifacts settled before the kill (trace files don't count).
pre=0
for f in "$work/data/results/"*.json; do
	[ -e "$f" ] || continue
	case "$f" in *".trace.json") continue ;; esac
	pre=$((pre + 1))
done
if [ "$pre" -ge "$jobs" ]; then
	echo "smoke_load: all $jobs jobs settled before the kill landed (not mid-flight)" >&2
	exit 1
fi
echo "smoke_load: killed with $pre/$jobs artifacts settled"

# Restart over the same store: every acked job must settle done — a wait
# that times out or reports failure is a lost job.
boot_daemon "$work/data" 4
while IFS= read -r id; do
	"$work/ptmcd" wait -server "$base" -id "$id" -timeout 2m -poll 20ms > /dev/null
done < "$work/ids"

# Zero duplicate simulations: the restart re-ran exactly the jobs with no
# artifact (replayed), and adopted the rest from disk. Jobs whose artifact
# survived but whose WAL "done" record didn't show up as recovered, never
# as re-runs.
metrics="$("$work/ptmcd" metrics -server "$base")"
sims="$(echo "$metrics" | awk '$1 == "ptmcd.sims_run" {print $2}')"
recovered="$(echo "$metrics" | awk '$1 == "ptmcd.jobs_recovered" {print $2}')"
replayed="$(echo "$metrics" | awk '$1 == "ptmcd.jobs_replayed" {print $2}')"
want=$((jobs - pre))
if [ "$sims" != "$want" ] || [ "$replayed" != "$want" ]; then
	echo "smoke_load: restart ran $sims sims / replayed $replayed with $pre/$jobs settled pre-kill (want $want — duplicate or lost work)" >&2
	exit 1
fi
if [ "$recovered" -gt "$pre" ]; then
	echo "smoke_load: recovered($recovered) exceeds pre-kill artifacts($pre)" >&2
	exit 1
fi

# Every artifact must be on disk and served.
post=0
for f in "$work/data/results/"*.json; do
	[ -e "$f" ] || continue
	case "$f" in *".trace.json") continue ;; esac
	post=$((post + 1))
done
if [ "$post" -ne "$jobs" ]; then
	echo "smoke_load: $post/$jobs artifacts after restart" >&2
	exit 1
fi
id="$(head -n 1 "$work/ids")"
"$work/ptmcd" result -server "$base" -id "$id" > /dev/null

# The restarted daemon's open (after a torn tail) or its first append
# rewrites its log, so it has replaced at least one log file, and wal.log
# is the only one on disk.
metrics="$("$work/ptmcd" metrics -server "$base")"
compacted="$(echo "$metrics" | awk '$1 == "ptmcd.wal_compacted_segments" {print $2}')"
segments="$(echo "$metrics" | awk '$1 == "ptmcd.wal_segments" {print $2}')"
if [ "${compacted:-0}" -le 0 ] || [ "${segments:-0}" -ne 1 ]; then
	echo "smoke_load: wal_compacted_segments=$compacted wal_segments=$segments (want > 0 rewrites and exactly 1 log file)" >&2
	exit 1
fi

# The restarted daemon must still drain to exit 0.
kill -TERM "$daemon_pid"
if ! wait "$daemon_pid"; then
	echo "smoke_load: daemon exited non-zero on SIGTERM drain" >&2
	cat "$work/daemon.log" >&2
	exit 1
fi
daemon_pid=""
echo "smoke_load: $jobs jobs, kill -9 at $pre settled, 0 lost, 0 duplicate sims, $compacted log rewrites, $segments WAL file on disk"
