#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON file produced by --trace or a merged
cluster trace produced by --cluster-trace.

Structural checks (always on):
  * the file parses as JSON with a "traceEvents" list
  * every event carries the required keys for its phase type
  * within each (pid, tid) lane, timestamps are non-decreasing
  * every lane's B/E spans are balanced and properly nested
  * flow arrows are causally ordered: for every flow id with both ends,
    the earliest start ('s') does not postdate the latest finish ('f')

Acceptance checks (opt-in flags, used by the ctest suites):
  * --expect-stages N        at least N distinct async "stage:*" tracks
  * --expect-anticombine     at least one shared_spill or adaptive_decision
                             instant event
  * --expect-pids N          at least N distinct pid lanes, each labeled by
                             a process_name metadata event (cluster merges)
  * --expect-flows N         at least N flow ids with a matched s/f pair;
                             orphan ends are tolerated (a crashed worker
                             legitimately strands its arrows) but counted
  * --expect-span SUBSTR     some B or X event name contains SUBSTR
                             (repeatable; all must match)
  * --expect-phases-within-tasks
                             at least one "phase" X event; each lies inside
                             a "task" B/E span on its own lane, and the
                             phases of one task span sum to no more than
                             its duration

Exits 0 when every requested check passes, 1 otherwise. Stdlib only.
"""
import argparse
import json
import sys

# Keys every event must carry, plus per-phase extras.
BASE_KEYS = {"ph", "pid", "tid"}
PHASE_KEYS = {
    "B": {"name", "cat", "ts"},
    "E": {"ts"},
    "X": {"name", "cat", "ts", "dur"},
    "i": {"name", "cat", "ts", "s"},
    "C": {"name", "ts", "args"},
    "b": {"name", "cat", "ts", "id"},
    "e": {"name", "cat", "ts", "id"},
    "s": {"name", "cat", "ts", "id"},
    "f": {"name", "cat", "ts", "id"},
    "M": {"name", "args"},
}


def fail(msg):
    print("validate_trace: FAIL: %s" % msg, file=sys.stderr)
    return 1


# Timestamps are microseconds printed with three decimals: allow one
# rounding step per comparison, and one per summed duration.
TS_EPS = 0.0015


def check_phases_within_tasks(phase_events, task_spans):
    """Each phase event inside the innermost task span on its lane that
    contains it; per task span, the phase durations sum to at most the
    span's duration."""
    if not phase_events:
        return fail("expected phase X events, found none")
    phase_sums = {}  # (lane, begin, end) -> (summed dur, event count)
    for lane, ts, dur in phase_events:
        enclosing = [(b, e) for b, e in task_spans.get(lane, [])
                     if b - TS_EPS <= ts and ts + dur <= e + TS_EPS]
        if not enclosing:
            return fail("phase span at ts %s (dur %s) in lane %s lies in no "
                        "task span" % (ts, dur, lane))
        begin, end = max(enclosing)  # innermost: the latest begin
        total, count = phase_sums.get((lane, begin, end), (0.0, 0))
        phase_sums[(lane, begin, end)] = (total + dur, count + 1)
    for (lane, begin, end), (total, count) in phase_sums.items():
        if total > end - begin + TS_EPS * (count + 1):
            return fail("phase spans of the task at ts %s in lane %s sum to "
                        "%s, beyond its duration %s"
                        % (begin, lane, total, end - begin))
    print("validate_trace: %d phase spans inside %d task spans"
          % (len(phase_events), len(phase_sums)))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="trace JSON file to validate")
    parser.add_argument("--expect-stages", type=int, default=0, metavar="N",
                        help="require at least N async stage tracks")
    parser.add_argument("--expect-anticombine", action="store_true",
                        help="require a shared_spill or adaptive_decision "
                             "instant")
    parser.add_argument("--expect-pids", type=int, default=0, metavar="N",
                        help="require at least N named pid lanes")
    parser.add_argument("--expect-flows", type=int, default=0, metavar="N",
                        help="require at least N matched s/f flow pairs")
    parser.add_argument("--expect-span", action="append", default=[],
                        metavar="SUBSTR",
                        help="require a B/X span name containing SUBSTR "
                             "(repeatable)")
    parser.add_argument("--expect-phases-within-tasks", action="store_true",
                        help="require phase X events, each inside its "
                             "task's span, summing to at most its duration")
    args = parser.parse_args()

    try:
        with open(args.trace, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return fail("cannot parse %s: %s" % (args.trace, e))

    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return fail("missing or non-list traceEvents")

    last_ts = {}      # (pid, tid) -> last seen ts
    open_spans = {}   # (pid, tid) -> stack of open B (name, cat, ts)
    task_spans = {}   # (pid, tid) -> [(begin ts, end ts)] of "task" spans
    phase_events = []  # (lane, ts, dur) of "phase" X events
    stage_tracks = set()
    anticombine_instants = 0
    named_pids = set()       # pids with a process_name metadata event
    flow_starts = {}         # flow id -> earliest 's' ts
    flow_finishes = {}       # flow id -> latest 'f' ts
    span_names = set()       # B/X names (for --expect-span)

    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            return fail("event %d is not an object" % i)
        ph = ev.get("ph")
        if ph not in PHASE_KEYS:
            return fail("event %d has unknown ph %r" % (i, ph))
        missing = (BASE_KEYS | PHASE_KEYS[ph]) - ev.keys()
        if missing:
            return fail("event %d (ph=%s) missing keys %s"
                        % (i, ph, sorted(missing)))
        if ph == "M":
            if ev["name"] == "process_name":
                named_pids.add(ev["pid"])
            continue
        lane = (ev["pid"], ev["tid"])
        ts = ev["ts"]
        if ts < last_ts.get(lane, 0):
            return fail("event %d: ts %s goes backwards in lane %s"
                        % (i, ts, lane))
        last_ts[lane] = ts
        if ph == "B":
            open_spans.setdefault(lane, []).append(
                (ev["name"], ev["cat"], ts))
            span_names.add(ev["name"])
        elif ph == "E":
            if not open_spans.get(lane):
                return fail("event %d: E with no open span in lane %s"
                            % (i, lane))
            _, cat, begin = open_spans[lane].pop()
            if cat == "task":
                task_spans.setdefault(lane, []).append((begin, ts))
        elif ph == "X":
            span_names.add(ev["name"])
            if ev["cat"] == "phase":
                phase_events.append((lane, ts, ev["dur"]))
        elif ph == "b" and ev["name"].startswith("stage:"):
            stage_tracks.add(ev["name"])
        elif ph == "i" and ev["name"] in ("shared_spill", "adaptive_decision"):
            anticombine_instants += 1
        elif ph == "s":
            fid = ev["id"]
            flow_starts[fid] = min(flow_starts.get(fid, ts), ts)
        elif ph == "f":
            fid = ev["id"]
            flow_finishes[fid] = max(flow_finishes.get(fid, ts), ts)

    unbalanced = {lane: stack for lane, stack in open_spans.items() if stack}
    if unbalanced:
        return fail("unclosed spans at end of trace: %s" % unbalanced)

    matched_flows = 0
    for fid, start_ts in flow_starts.items():
        if fid in flow_finishes:
            if start_ts > flow_finishes[fid]:
                return fail("flow %s finishes (ts %s) before it starts "
                            "(ts %s)" % (fid, flow_finishes[fid], start_ts))
            matched_flows += 1
    orphan_flows = (len(flow_starts) - matched_flows
                    + sum(1 for fid in flow_finishes if fid not in flow_starts))

    if args.expect_stages and len(stage_tracks) < args.expect_stages:
        return fail("expected >= %d stage tracks, found %d: %s"
                    % (args.expect_stages, len(stage_tracks),
                       sorted(stage_tracks)))
    if args.expect_anticombine and anticombine_instants == 0:
        return fail("expected a shared_spill or adaptive_decision instant, "
                    "found none")
    if args.expect_pids and len(named_pids) < args.expect_pids:
        return fail("expected >= %d named pid lanes, found %d: %s"
                    % (args.expect_pids, len(named_pids), sorted(named_pids)))
    if args.expect_flows and matched_flows < args.expect_flows:
        return fail("expected >= %d matched flow pairs, found %d "
                    "(%d orphan ends)"
                    % (args.expect_flows, matched_flows, orphan_flows))
    for substr in args.expect_span:
        if not any(substr in name for name in span_names):
            return fail("no B/X span name contains %r" % substr)
    if args.expect_phases_within_tasks:
        rc = check_phases_within_tasks(phase_events, task_spans)
        if rc:
            return rc

    print("validate_trace: OK: %d events, %d lanes, %d named pids, "
          "%d stage tracks, %d matched flows (%d orphans), "
          "%d anti-combining instants"
          % (len(events), len(last_ts), len(named_pids), len(stage_tracks),
             matched_flows, orphan_flows, anticombine_instants))
    return 0


if __name__ == "__main__":
    sys.exit(main())
