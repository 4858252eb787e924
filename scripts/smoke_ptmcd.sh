#!/bin/sh
# Crash-recovery smoke for cmd/ptmcd: the acceptance script for the
# daemon's durability contract.
#
#   1. Reference leg: boot a daemon, submit a job, let it complete, save
#      the result artifact, SIGTERM the daemon — it must exit 0 after a
#      clean drain.
#   2. Crash leg: fresh store, same job, SIGKILL the daemon mid-simulation
#      (kill -9: no drain, no checkpoint), restart over the same store.
#      The WAL replays the accepted job, the deterministic simulator
#      re-runs it, and the served artifact must be byte-identical to the
#      reference. The restarted daemon must also drain to exit 0.
#   3. Sweep-resume leg: a 3-scheme x 3-seed sweep run clean for a
#      reference aggregate, then re-run on a fresh store with a SIGKILL
#      mid-matrix. The restarted daemon must finish the sweep with a
#      byte-identical aggregate, and its sims_run metric must equal
#      exactly the points that had no artifact at kill time — zero
#      re-simulated points. The aggregate is served, not stored: no
#      results/<sweep id>.json may exist once the sweep has completed.
set -e
cd "$(dirname "$0")/.."

work="$(mktemp -d)"
daemon_pid=""
cleanup() {
	[ -n "$daemon_pid" ] && kill -9 "$daemon_pid" 2>/dev/null || true
	rm -rf "$work"
}
trap cleanup EXIT

go build -o "$work/ptmcd" ./cmd/ptmcd

# Sized so the measured window takes a few seconds on one core: long
# enough that the SIGKILL below reliably lands mid-run.
spec='{"workload":"lbm06","schemes":["dynamic-ptmc"],"cores":2,"warmup_instr":500000,"measure_instr":6000000}'

# boot_daemon DATA_DIR -> sets $daemon_pid and $base (URL)
boot_daemon() {
	rm -f "$work/addr"
	"$work/ptmcd" -addr 127.0.0.1:0 -addr-file "$work/addr" -data "$1" \
		-parallel 1 >> "$work/daemon.log" 2>&1 &
	daemon_pid=$!
	i=0
	while [ ! -f "$work/addr" ]; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			echo "smoke_ptmcd: daemon never wrote its address file" >&2
			cat "$work/daemon.log" >&2
			exit 1
		fi
		sleep 0.1
	done
	base="http://$(cat "$work/addr")"
}

# sigterm_daemon: drain must be clean and the exit status 0.
sigterm_daemon() {
	kill -TERM "$daemon_pid"
	if ! wait "$daemon_pid"; then
		echo "smoke_ptmcd: daemon exited non-zero on SIGTERM drain" >&2
		cat "$work/daemon.log" >&2
		exit 1
	fi
	daemon_pid=""
}

# --- Reference leg -----------------------------------------------------
boot_daemon "$work/ref-data"
id="$("$work/ptmcd" submit -server "$base" -spec "$spec")"
"$work/ptmcd" wait -server "$base" -id "$id" -timeout 5m > /dev/null
"$work/ptmcd" result -server "$base" -id "$id" > "$work/ref.json"
sigterm_daemon

# --- Crash leg ---------------------------------------------------------
boot_daemon "$work/crash-data"
id2="$("$work/ptmcd" submit -server "$base" -spec "$spec")"
if [ "$id2" != "$id" ]; then
	echo "smoke_ptmcd: same spec produced different job ids ($id vs $id2)" >&2
	exit 1
fi
# Let the simulation get well into its run, then kill -9: no drain, no
# checkpoint, the WAL abandoned exactly as it lies.
sleep 1.5
kill -9 "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""

# Restart over the crashed store: the accepted job replays and completes.
boot_daemon "$work/crash-data"
"$work/ptmcd" wait -server "$base" -id "$id" -timeout 5m > /dev/null
"$work/ptmcd" result -server "$base" -id "$id" > "$work/replayed.json"
sigterm_daemon

if ! cmp -s "$work/ref.json" "$work/replayed.json"; then
	echo "smoke_ptmcd: replayed result differs from the reference artifact" >&2
	diff "$work/ref.json" "$work/replayed.json" >&2 || true
	exit 1
fi
echo "smoke_ptmcd: job $id recovered after kill -9 with a byte-identical artifact"

# --- Sweep-resume leg --------------------------------------------------
# 9 points sized so the matrix takes several seconds on one worker: the
# SIGKILL below reliably lands with some points settled and some not.
sweep='{"workloads":["lbm06"],"schemes":["uncompressed","ptmc","dynamic-ptmc"],"seeds":[1,2,3],"cores":2,"warmup_instr":100000,"measure_instr":1200000}'
points=9

# Reference aggregate from an uninterrupted run in its own store.
boot_daemon "$work/sweep-ref-data"
sid="$("$work/ptmcd" submit -sweep -server "$base" -spec "$sweep")"
"$work/ptmcd" wait -sweep -server "$base" -id "$sid" -timeout 5m > /dev/null
"$work/ptmcd" result -sweep -server "$base" -id "$sid" > "$work/sweep-ref.json"
sigterm_daemon

# Crash run: same sweep, fresh store, kill -9 mid-matrix.
boot_daemon "$work/sweep-data"
sid2="$("$work/ptmcd" submit -sweep -server "$base" -spec "$sweep")"
if [ "$sid2" != "$sid" ]; then
	echo "smoke_ptmcd: same sweep spec produced different ids ($sid vs $sid2)" >&2
	exit 1
fi
sleep 2.5
kill -9 "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""

# Points already settled at kill time: one result artifact per child job
# (trace files don't count).
pre=0
for f in "$work/sweep-data/results/"*.json; do
	[ -e "$f" ] || continue
	case "$f" in
	*".trace.json") continue ;;
	esac
	pre=$((pre + 1))
done

# Restart: the sweep must finish, byte-identical, re-simulating only the
# points that had no artifact.
boot_daemon "$work/sweep-data"
"$work/ptmcd" wait -sweep -server "$base" -id "$sid" -timeout 5m > /dev/null
"$work/ptmcd" result -sweep -server "$base" -id "$sid" > "$work/sweep-resumed.json"
sims="$("$work/ptmcd" metrics -server "$base" | awk '$1 == "ptmcd.sims_run" {print $2}')"
sigterm_daemon

if ! cmp -s "$work/sweep-ref.json" "$work/sweep-resumed.json"; then
	echo "smoke_ptmcd: resumed sweep aggregate differs from the reference" >&2
	diff "$work/sweep-ref.json" "$work/sweep-resumed.json" >&2 || true
	exit 1
fi
for d in sweep-ref-data sweep-data; do
	if [ -e "$work/$d/results/$sid.json" ]; then
		echo "smoke_ptmcd: completed sweep left a stored aggregate $d/results/$sid.json (it must be served, not stored)" >&2
		exit 1
	fi
done
want=$((points - pre))
if [ "$sims" != "$want" ]; then
	echo "smoke_ptmcd: restart ran $sims sims for $points-point sweep with $pre settled pre-kill (want $want — duplicate or lost work)" >&2
	exit 1
fi
echo "smoke_ptmcd: sweep $sid resumed after kill -9 ($pre/$points points reused, $sims re-simulated, aggregate byte-identical)"
