#!/usr/bin/env python3
"""Validate an EGACS Chrome/Perfetto trace file against tools/trace_schema.json.

Usage: check_trace.py TRACE.json [--schema SCHEMA.json] [--min-rounds N]

Checks, in order:
  1. The file parses as JSON and validates against the structural schema
     (a stdlib-only subset of JSON Schema: type/required/properties/enum/
     items/minimum -- exactly what the schema file uses).
  2. Every ph=X event has dur >= 0; every cat=round event satisfies the
     schema's roundArgs contract (round/frontier/direction/stats, plus the
     four perf keys when a perf object is present) and carries a reported
     frontier: its direction is never "n/a", and frontier -1 (no frontier)
     appears only with direction "flat".
  3. Per (pid, tid), complete events are well nested: sorted by begin time,
     each event lies fully inside or fully outside every other.
  4. Optional: at least --min-rounds round events exist (CI smoke floor).

Exit codes: 0 valid, 1 validation failure, 2 usage/IO error.
"""

import argparse
import json
import os
import sys


def fail(msg):
    print("check_trace: FAIL: %s" % msg)
    raise SystemExit(1)


def type_ok(value, expected):
    if expected == "object":
        return isinstance(value, dict)
    if expected == "array":
        return isinstance(value, list)
    if expected == "string":
        return isinstance(value, str)
    if expected == "boolean":
        return isinstance(value, bool)
    if expected == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if expected == "number":
        return (isinstance(value, (int, float))
                and not isinstance(value, bool))
    return True


def validate(value, schema, path):
    """Minimal JSON-Schema walker covering the keywords the schema uses."""
    expected = schema.get("type")
    if expected is not None and not type_ok(value, expected):
        fail("%s: expected %s, got %s" % (path, expected,
                                          type(value).__name__))
    if "enum" in schema and value not in schema["enum"]:
        fail("%s: %r not in %r" % (path, value, schema["enum"]))
    if "minimum" in schema and isinstance(value, (int, float)) \
            and not isinstance(value, bool) and value < schema["minimum"]:
        fail("%s: %r < minimum %r" % (path, value, schema["minimum"]))
    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                fail("%s: missing required key '%s'" % (path, key))
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                validate(value[key], sub, "%s.%s" % (path, key))
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            validate(item, schema["items"], "%s[%d]" % (path, i))


def check_round_events(events, round_schema):
    rounds = 0
    for i, ev in enumerate(events):
        if ev.get("ph") != "X":
            continue
        where = "traceEvents[%d]" % i
        if ev.get("dur", 0) < 0:
            fail("%s: negative dur" % where)
        if ev.get("cat") != "round":
            continue
        rounds += 1
        args = ev.get("args")
        if not isinstance(args, dict):
            fail("%s: round event without args" % where)
        validate(args, round_schema, where + ".args")
        if args["direction"] == "n/a":
            fail("%s: round without a reported frontier (direction n/a)"
                 % where)
        if args["frontier"] == -1 and args["direction"] != "flat":
            fail("%s: frontier -1 with direction %r (only 'flat' rounds "
                 "have no frontier)" % (where, args["direction"]))
        for stat, count in args["stats"].items():
            if not isinstance(count, int) or isinstance(count, bool) \
                    or count < 0:
                fail("%s: stat %s is not a non-negative integer"
                     % (where, stat))
    return rounds


def check_nesting(events):
    """Complete events on one (pid, tid) row must be stack-disciplined."""
    rows = {}
    for ev in events:
        if ev.get("ph") != "X":
            continue
        key = (ev.get("pid"), ev.get("tid", 0))
        begin = float(ev.get("ts", 0))
        rows.setdefault(key, []).append((begin, begin + float(ev.get("dur", 0)),
                                         ev.get("name", "?")))
    for key, spans in rows.items():
        spans.sort(key=lambda s: (s[0], -s[1]))
        stack = []
        for begin, end, name in spans:
            while stack and begin >= stack[-1][0] - 1e-9:
                stack.pop()
            if stack and end > stack[-1][0] + 1e-9:
                fail("pid=%s tid=%s: '%s' [%f, %f] partially overlaps "
                     "'%s' ending at %f"
                     % (key[0], key[1], name, begin, end,
                        stack[-1][1], stack[-1][0]))
            stack.append((end, name))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("trace")
    ap.add_argument("--schema",
                    default=os.path.join(os.path.dirname(__file__),
                                         "trace_schema.json"))
    ap.add_argument("--min-rounds", type=int, default=0)
    opts = ap.parse_args()

    try:
        with open(opts.schema) as f:
            schema = json.load(f)
    except (OSError, ValueError) as e:
        print("check_trace: cannot load schema %s: %s" % (opts.schema, e))
        raise SystemExit(2)
    try:
        with open(opts.trace) as f:
            trace = json.load(f)
    except OSError as e:
        print("check_trace: cannot open %s: %s" % (opts.trace, e))
        raise SystemExit(2)
    except ValueError as e:
        fail("not valid JSON: %s" % e)

    validate(trace, schema, "$")
    events = trace["traceEvents"]
    rounds = check_round_events(events, schema["roundArgs"])
    check_nesting(events)
    if rounds < opts.min_rounds:
        fail("only %d round event(s), expected at least %d"
             % (rounds, opts.min_rounds))
    print("check_trace: OK: %d event(s), %d round(s), perfAvailable=%s"
          % (len(events), rounds,
             trace["otherData"]["perfAvailable"]))


if __name__ == "__main__":
    main()
