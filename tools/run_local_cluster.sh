#!/usr/bin/env sh
# Multi-process smoke test: 1 coordinator + N worker processes on localhost
# TCP must produce byte-identical output to the single-process engine. The
# coordinator's /status endpoint must also report every worker live before
# the job is released (via --gate-file), exercising the live status surface
# the way an operator would.
#
# usage: run_local_cluster.sh [CLI_BINARY] [WORKERS] [WORKLOAD]
#   CLI_BINARY  path to antimr_cli      (default: ./build/tools/antimr_cli)
#   WORKERS     worker process count    (default: 2)
#   WORKLOAD    wordcount|sort|thetajoin|serve (default: wordcount)
#
# WORKLOAD=serve exercises the multi-tenant daemon instead of a one-shot
# run: `antimr_cli serve` + external worker processes, 8 concurrent jobs
# submitted across two weighted pools, every job's output hash compared to
# its single-process run and every job row's task progress checked, CLI
# error paths checked, clean SIGTERM shutdown.
#
# Exit 0 when the output hashes match, non-zero otherwise.
set -eu

CLI=${1:-./build/tools/antimr_cli}
WORKERS=${2:-2}
WORKLOAD=${3:-wordcount}
RECORDS=${RECORDS:-5000}
MAPS=${MAPS:-6}
REDUCES=${REDUCES:-4}
STRATEGY=${STRATEGY:-adaptive}

if [ ! -x "$CLI" ]; then
  echo "run_local_cluster: no antimr_cli at $CLI" >&2
  exit 2
fi

WORK_DIR=$(mktemp -d "${TMPDIR:-/tmp}/antimr_cluster.XXXXXX")
WORKER_PIDS=""
COORD_PID=""
# Every child dies with the script: a failing step between the coordinator
# launch and the final wait used to orphan the coordinator (and thereby its
# listen port) and leak WORK_DIR.
cleanup() {
  for pid in $WORKER_PIDS; do kill "$pid" 2>/dev/null || true; done
  if [ -n "$COORD_PID" ]; then kill "$COORD_PID" 2>/dev/null || true; fi
  rm -rf "$WORK_DIR"
}
trap cleanup EXIT INT TERM

if [ "$WORKLOAD" = "serve" ]; then
  # --- Daemon mode: persistent job service, multi-tenant submissions. ---
  READY="$WORK_DIR/ready"

  # Print the daemon's exit status after its output, so a start-up failure
  # names its cause: a crash or a bind error (it exited), or a hang (it was
  # still running at the timeout, so it is stopped here first).
  report_daemon() {
    cat "$WORK_DIR/coord.out" >&2
    if kill -0 "$COORD_PID" 2>/dev/null; then
      echo "run_local_cluster: serve daemon still running; stopping it" >&2
      kill "$COORD_PID" 2>/dev/null || true
    fi
    DAEMON_STATUS=0
    wait "$COORD_PID" || DAEMON_STATUS=$?
    COORD_PID=""
    echo "run_local_cluster: serve daemon exit status $DAEMON_STATUS" >&2
  }

  # Created before the launch: the polls below read it before the daemon's
  # own redirection may have run.
  : > "$WORK_DIR/coord.out"
  "$CLI" serve --dist=tcp --listen=127.0.0.1:0 --job-listen=127.0.0.1:0 \
      --status-listen=127.0.0.1:0 --local-workers=0 --workers="$WORKERS" \
      --pools=small:3:8,big:1:8 --max-concurrent-jobs=8 \
      --default-cpu-slots=1 --heartbeat-timeout-ms=4000 \
      --ready-file="$READY" > "$WORK_DIR/coord.out" 2>&1 &
  COORD_PID=$!

  # The coordinator binds an ephemeral port; external workers need it off
  # stdout (the ready file only lands once the worker quorum is up).
  COORD_ADDR=""
  i=0
  while [ "$i" -lt 100 ]; do
    COORD_ADDR=$(sed -n 's/^coordinator listening at //p' \
                 "$WORK_DIR/coord.out")
    [ -n "$COORD_ADDR" ] && break
    kill -0 "$COORD_PID" 2>/dev/null || break
    sleep 0.1
    i=$((i + 1))
  done
  if [ -z "$COORD_ADDR" ]; then
    echo "run_local_cluster: serve daemon never announced coordinator:" >&2
    report_daemon
    exit 1
  fi

  i=0
  while [ "$i" -lt "$WORKERS" ]; do
    "$CLI" worker --connect="$COORD_ADDR" --name="worker$i" \
        > "$WORK_DIR/worker$i.out" 2>&1 &
    WORKER_PIDS="$WORKER_PIDS $!"
    i=$((i + 1))
  done

  # The ready file is the daemon's "worker quorum live, RPC planes bound"
  # signal; it carries the job-service and status addresses.
  i=0
  while [ "$i" -lt 300 ]; do
    [ -f "$READY" ] && break
    kill -0 "$COORD_PID" 2>/dev/null || break
    sleep 0.1
    i=$((i + 1))
  done
  if [ ! -f "$READY" ]; then
    echo "run_local_cluster: serve daemon never became ready:" >&2
    report_daemon
    exit 1
  fi
  JOBS_ADDR=$(sed -n 's/^jobs=//p' "$READY")

  # CLI error paths: an unreachable endpoint and an unknown job must print
  # an error on stderr and exit non-zero — never hang or die silently.
  if "$CLI" jobs --connect=127.0.0.1:1 > "$WORK_DIR/neg1.out" 2>&1; then
    echo "run_local_cluster: jobs against a dead endpoint exited 0" >&2
    exit 1
  fi
  grep -q "error:" "$WORK_DIR/neg1.out" || {
    echo "run_local_cluster: no error message for dead endpoint" >&2
    cat "$WORK_DIR/neg1.out" >&2
    exit 1
  }
  if "$CLI" abort --connect="$JOBS_ADDR" --job=doesnotexist \
      > "$WORK_DIR/neg2.out" 2>&1; then
    echo "run_local_cluster: abort of an unknown job exited 0" >&2
    exit 1
  fi
  grep -q "error:" "$WORK_DIR/neg2.out" || {
    echo "run_local_cluster: no error message for unknown job" >&2
    cat "$WORK_DIR/neg2.out" >&2
    exit 1
  }

  # Two tenants, one cluster: pool "small" (weight 3) gets 6 wordcounts,
  # pool "big" (weight 1) gets 2 theta-joins, all in flight at once.
  SUB_PIDS=""
  i=0
  while [ "$i" -lt 6 ]; do
    "$CLI" submit --connect="$JOBS_ADDR" --pool=small --wait \
        --workload=wordcount --strategy="$STRATEGY" --records=3000 \
        --maps=4 --reduces=2 > "$WORK_DIR/sub_small$i.out" 2>&1 &
    SUB_PIDS="$SUB_PIDS $!"
    i=$((i + 1))
  done
  i=0
  while [ "$i" -lt 2 ]; do
    "$CLI" submit --connect="$JOBS_ADDR" --pool=big --wait \
        --workload=thetajoin --strategy="$STRATEGY" --records=4000 \
        --maps=4 --reduces=4 > "$WORK_DIR/sub_big$i.out" 2>&1 &
    SUB_PIDS="$SUB_PIDS $!"
    i=$((i + 1))
  done

  SUB_FAIL=0
  for pid in $SUB_PIDS; do wait "$pid" || SUB_FAIL=1; done
  if [ "$SUB_FAIL" -ne 0 ]; then
    echo "run_local_cluster: a submitted job failed:" >&2
    cat "$WORK_DIR"/sub_*.out >&2
    exit 1
  fi

  # All 8 must have run concurrently (max-concurrent-jobs=8, quotas
  # 6x1 + 2x1 slots within the 8-slot pool quotas). The peak is the largest
  # overlap of the jobs' [start, finish) intervals in the final job table:
  # a sweep over start (+1) and finish (-1) events, finishes first on ties.
  "$CLI" jobs --connect="$JOBS_ADDR" > "$WORK_DIR/jobs.out"
  PEAK=$(awk '{
      s = ""; f = ""
      for (i = 1; i <= NF; i++) {
        if ($i ~ /^start_ns=/) s = substr($i, 10)
        if ($i ~ /^finish_ns=/) f = substr($i, 11)
      }
      if (s != "" && s != "0" && f != "" && f != "0") {
        print s, 1
        print f, -1
      }
    }' "$WORK_DIR/jobs.out" | sort -k1,1n -k2,2n \
    | awk '{ cur += $2; if (cur > peak) peak = cur } END { print peak + 0 }')
  if [ "$PEAK" -lt 8 ]; then
    echo "run_local_cluster: never saw 8 concurrent jobs (peak $PEAK)" >&2
    cat "$WORK_DIR/jobs.out" >&2
    exit 1
  fi

  # Isolation gate: every tenant's hash must equal its single-process run.
  "$CLI" run --workload=wordcount --strategy="$STRATEGY" --records=3000 \
      --maps=4 --reduces=2 --output-hash > "$WORK_DIR/solo_small.out" 2>&1
  SMALL_HASH=$(sed -n 's/.*output_hash=\([0-9a-f]*\).*/\1/p' \
               "$WORK_DIR/solo_small.out")
  "$CLI" run --workload=thetajoin --strategy="$STRATEGY" --records=4000 \
      --maps=4 --reduces=4 --output-hash > "$WORK_DIR/solo_big.out" 2>&1
  BIG_HASH=$(sed -n 's/.*output_hash=\([0-9a-f]*\).*/\1/p' \
             "$WORK_DIR/solo_big.out")
  i=0
  while [ "$i" -lt 6 ]; do
    H=$(sed -n 's/.*output_hash=\([0-9a-f]*\).*/\1/p' \
        "$WORK_DIR/sub_small$i.out")
    if [ "$H" != "$SMALL_HASH" ]; then
      echo "run_local_cluster: small job $i hash $H != solo $SMALL_HASH" >&2
      exit 1
    fi
    i=$((i + 1))
  done
  i=0
  while [ "$i" -lt 2 ]; do
    H=$(sed -n 's/.*output_hash=\([0-9a-f]*\).*/\1/p' \
        "$WORK_DIR/sub_big$i.out")
    if [ "$H" != "$BIG_HASH" ]; then
      echo "run_local_cluster: big job $i hash $H != solo $BIG_HASH" >&2
      exit 1
    fi
    i=$((i + 1))
  done

  "$CLI" jobs --connect="$JOBS_ADDR" > "$WORK_DIR/jobs_final.out"
  DONE=$(grep -c "state=succeeded" "$WORK_DIR/jobs_final.out" || true)
  if [ "$DONE" -ne 8 ]; then
    echo "run_local_cluster: expected 8 succeeded jobs, table shows $DONE" >&2
    cat "$WORK_DIR/jobs_final.out" >&2
    exit 1
  fi
  # Each row reports its job's progress, read from the job's runner: every
  # map (4 splits) and every reduce done.
  PROGRESS=$(grep -c \
      -e "name=wordcount state=succeeded maps=4/4 reduces=2/2 " \
      -e "name=theta_join state=succeeded maps=4/4 reduces=4/4 " \
      "$WORK_DIR/jobs_final.out" || true)
  if [ "$PROGRESS" -ne 8 ]; then
    echo "run_local_cluster: expected 8 rows with every task done," \
         "table shows $PROGRESS" >&2
    cat "$WORK_DIR/jobs_final.out" >&2
    exit 1
  fi

  # Clean shutdown on SIGTERM: exit 0, workers reaped by the broadcast.
  kill -TERM "$COORD_PID"
  COORD_WAIT=0
  wait "$COORD_PID" || COORD_WAIT=$?
  COORD_PID=""
  if [ "$COORD_WAIT" -ne 0 ]; then
    echo "run_local_cluster: serve daemon exited $COORD_WAIT on SIGTERM:" >&2
    cat "$WORK_DIR/coord.out" >&2
    exit 1
  fi
  for pid in $WORKER_PIDS; do wait "$pid" || true; done
  WORKER_PIDS=""
  echo "run_local_cluster: serve mode with $WORKERS workers ran 8" \
       "concurrent jobs across 2 pools; all hashes match single-process"
  exit 0
fi

# Derive a port from the PID to dodge parallel ctest instances; the bind is
# retried on the next port if something else got there first.
PORT=$((20000 + $$ % 20000))
ATTEMPTS=0
while :; do
  "$CLI" run --workload="$WORKLOAD" --strategy="$STRATEGY" \
      --records="$RECORDS" --maps="$MAPS" --reduces="$REDUCES" \
      --dist=tcp --listen=127.0.0.1:$PORT --workers="$WORKERS" \
      --status-listen=127.0.0.1:0 --gate-file="$WORK_DIR/gate" \
      --output-hash > "$WORK_DIR/coord.out" 2>&1 &
  COORD_PID=$!
  sleep 0.2
  if kill -0 "$COORD_PID" 2>/dev/null; then
    break
  fi
  wait "$COORD_PID" || true
  ATTEMPTS=$((ATTEMPTS + 1))
  if [ "$ATTEMPTS" -ge 5 ]; then
    echo "run_local_cluster: coordinator failed to start:" >&2
    cat "$WORK_DIR/coord.out" >&2
    exit 1
  fi
  PORT=$((PORT + 1))
done

# The status server binds an ephemeral port; read it off stdout.
STATUS_ADDR=""
i=0
while [ "$i" -lt 50 ]; do
  STATUS_ADDR=$(sed -n 's/^status listening at //p' "$WORK_DIR/coord.out")
  [ -n "$STATUS_ADDR" ] && break
  sleep 0.1
  i=$((i + 1))
done
if [ -z "$STATUS_ADDR" ]; then
  echo "run_local_cluster: coordinator never announced its status server:" >&2
  cat "$WORK_DIR/coord.out" >&2
  exit 1
fi

i=0
while [ "$i" -lt "$WORKERS" ]; do
  "$CLI" worker --connect=127.0.0.1:$PORT --name="worker$i" \
      > "$WORK_DIR/worker$i.out" 2>&1 &
  WORKER_PIDS="$WORKER_PIDS $!"
  i=$((i + 1))
done

# The job stays gated until /status reports the full quorum live — the
# observability check this script exists to make.
LIVE=""
i=0
while [ "$i" -lt 100 ]; do
  LIVE=$("$CLI" status --connect="$STATUS_ADDR" 2>/dev/null \
         | sed -n 's/^ *"live_workers": \([0-9]*\).*/\1/p')
  [ "$LIVE" = "$WORKERS" ] && break
  sleep 0.1
  i=$((i + 1))
done
if [ "$LIVE" != "$WORKERS" ]; then
  echo "run_local_cluster: /status never reported $WORKERS live workers" \
       "(last: '$LIVE')" >&2
  cat "$WORK_DIR/coord.out" >&2
  exit 1
fi
touch "$WORK_DIR/gate"

COORD_WAIT=0
wait "$COORD_PID" || COORD_WAIT=$?
COORD_PID=""
if [ "$COORD_WAIT" -ne 0 ]; then
  echo "run_local_cluster: distributed run failed:" >&2
  cat "$WORK_DIR/coord.out" >&2
  exit 1
fi
# Workers exit on the coordinator's Shutdown; reap them before comparing.
for pid in $WORKER_PIDS; do wait "$pid" || true; done
WORKER_PIDS=""

DIST_HASH=$(sed -n 's/^output_hash=\([0-9a-f]*\).*/\1/p' "$WORK_DIR/coord.out")
if [ -z "$DIST_HASH" ]; then
  echo "run_local_cluster: no output_hash in coordinator output:" >&2
  cat "$WORK_DIR/coord.out" >&2
  exit 1
fi

"$CLI" run --workload="$WORKLOAD" --strategy="$STRATEGY" \
    --records="$RECORDS" --maps="$MAPS" --reduces="$REDUCES" \
    --output-hash > "$WORK_DIR/local.out" 2>&1
LOCAL_HASH=$(sed -n 's/^output_hash=\([0-9a-f]*\).*/\1/p' "$WORK_DIR/local.out")

if [ "$DIST_HASH" != "$LOCAL_HASH" ]; then
  echo "run_local_cluster: OUTPUT MISMATCH ($WORKLOAD, $WORKERS workers):" >&2
  echo "  distributed: $DIST_HASH" >&2
  echo "  local:       $LOCAL_HASH" >&2
  exit 1
fi
echo "run_local_cluster: $WORKLOAD with $WORKERS workers over tcp matches" \
     "single-process (hash $DIST_HASH)"
