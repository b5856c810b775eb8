#!/usr/bin/env python3
"""Validate craysim telemetry artifacts: Perfetto JSON, metrics JSONL,
counter time-series JSONL, sweep checkpoint journals, and latency
attribution JSONL.

Usage:
    tools/validate_telemetry.py --perfetto trace.json --metrics metrics.jsonl
    tools/validate_telemetry.py --perfetto sweep.json --min-processes 3 \
        --timeseries series.jsonl
    tools/validate_telemetry.py --journal sweep.journal
    tools/validate_telemetry.py --prom metrics.prom
    tools/validate_telemetry.py --attr attribution.jsonl

Checks (any failure exits nonzero, printing what broke):
  Perfetto (Chrome trace-event JSON), including SpanRecorderPool merges
  where every sweep point owns a disjoint pid namespace:
    * file parses, has a "traceEvents" list with at least one event
    * timestamps are monotonically nondecreasing in file order
    * B/E events balance with stack discipline per (pid, tid) — a pid
      namespace can never close a span another namespace opened
    * async b/e events balance per (pid, cat, id)
    * X events have nonnegative durations; i events carry a scope
    * C events carry a non-empty args object of numeric counter values
    * every pid that emits a timed event has process_name metadata
    * with --min-processes N, at least N distinct pids emit timed events
  Metrics JSONL:
    * every line is a standalone JSON object with "metric" and "type"
    * lines are sorted by metric name with no duplicates
    * counters carry integer values, gauges numeric values, histograms the
      count/min/max/mean/p50/p90/p99 summary
    * when --require is given, each listed metric name (or "prefix.*"
      pattern) must be present
  Counter time series JSONL (--timeseries):
    * every line is {"point": str, "series": str, "t_us": int, "value": num}
    * within each (point, series) pair, t_us is nondecreasing
  Sweep journal (--journal, the runner's checkpoint/resume file; see
  docs/RESILIENCE.md):
    * header line is {"craysim_journal": 1, "sweep_digest": "0x...",
      "points": N > 0}
    * the canonical section's record lines (each starting '{"index":') have
      strictly increasing indices
    * every later line is a frame: '#', the zlib.crc32 of the record line
      as 8 lowercase hex digits, then the record line
    * every record (canonical, or a frame whose CRC matches) is valid JSON
      with an in-range index no other record holds, a "0x..." input digest,
      status in {ok, failed, timeout}, attempts >= 1, backoff_ns >= 0
    * ok records carry a "result" payload; failed/timeout records an "error"
    * as on resume, a torn last line (no newline) and damaged lines (a frame
      whose CRC fails, any other line after the canonical section, a blank
      line) are not errors: they are counted and reported
    * as on resume, a line starting '{"index":' after the canonical section
      ended but before any line starting '#' is an error: it follows a
      damaged canonical record
  Prometheus text exposition (--prom, the live /metrics endpoint's output;
  promlint-style structural checks):
    * every sample line parses as "name[{labels}] value"; names and label
      keys match [a-zA-Z_:][a-zA-Z0-9_:]*
    * every family has paired # HELP and # TYPE lines, TYPE before any of
      its samples, each family declared exactly once
    * no duplicate series (same name + label set)
    * histogram buckets have monotone nondecreasing cumulative counts in
      increasing le order, ending at le="+Inf" with count == <family>_count
    * summary quantile samples carry a quantile label in [0, 1]
  Latency attribution JSONL (--attr, SweepObserver's --attribution output;
  see docs/OBSERVABILITY.md):
    * every line is a JSON object typed total/file/proc/phase/size/disk/
      latency_hist with a "point" label
    * entry lines carry the full component set, with every component summing
      exactly to the line's io_time_us (the per-op conservation invariant,
      surviving serialization)
    * per point: exactly one total and one latency_hist line; each scope's
      rows (file/proc/phase/size) sum back to the total's ops and
      io_time_us; the latency histogram's counts sum to the total op count
    * disk lines' queue/overhead/seek/rotation/transfer/fault components sum
      exactly to their total_us

CI's telemetry smoke job runs this over examples/observe's output (including
the merged multi-point sweep trace), the live-telemetry smoke job over a
mid-sweep /metrics scrape and the sweep's attribution JSONL, and the
crash-drill job over the journal the drill leaves behind.
"""

import argparse
import json
import re
import sys
import zlib


def fail(message):
    print(f"validate_telemetry: {message}", file=sys.stderr)
    sys.exit(1)


def open_or_fail(path):
    """Opens for reading; any OS error becomes a one-line failure instead of
    a traceback (missing artifacts are the common CI mistake)."""
    try:
        return open(path)
    except OSError as e:
        fail(f"{path}: cannot open: {e.strerror or e}")


def validate_perfetto(path, min_processes=0):
    with open_or_fail(path) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as e:
            fail(f"{path}: not valid JSON: {e}")
    events = data.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: missing or empty traceEvents array")

    stacks = {}       # (pid, tid) -> [names] for B/E
    open_async = {}   # (pid, cat, id) -> open count for b/e
    named_pids = set()  # pids with process_name metadata
    timed_pids = set()  # pids that emitted a non-metadata event
    counters = 0
    last_ts = None
    for i, e in enumerate(events):
        ph = e.get("ph")
        if ph == "M":
            if e.get("name") == "process_name":
                named_pids.add(e.get("pid"))
            continue
        ts = e.get("ts")
        if not isinstance(ts, (int, float)):
            fail(f"{path}: event {i} has no numeric ts: {e}")
        if last_ts is not None and ts < last_ts:
            fail(f"{path}: event {i} ts {ts} goes backwards (previous {last_ts})")
        last_ts = ts
        timed_pids.add(e.get("pid"))
        if ph == "B":
            stacks.setdefault((e.get("pid"), e.get("tid")), []).append(e.get("name"))
        elif ph == "E":
            stack = stacks.get((e.get("pid"), e.get("tid")), [])
            if not stack:
                fail(f"{path}: event {i} E '{e.get('name')}' on empty stack")
            top = stack.pop()
            if top != e.get("name"):
                fail(f"{path}: event {i} E '{e.get('name')}' closes '{top}'")
        elif ph == "b":
            key = (e.get("pid"), e.get("cat"), e.get("id"))
            open_async[key] = open_async.get(key, 0) + 1
        elif ph == "e":
            key = (e.get("pid"), e.get("cat"), e.get("id"))
            if open_async.get(key, 0) <= 0:
                fail(f"{path}: event {i} async end without begin: {key}")
            open_async[key] -= 1
        elif ph == "X":
            if e.get("dur", 0) < 0:
                fail(f"{path}: event {i} X with negative dur")
        elif ph == "i":
            if "s" not in e:
                fail(f"{path}: event {i} instant without scope")
        elif ph == "C":
            args = e.get("args")
            if not isinstance(args, dict) or not args:
                fail(f"{path}: event {i} counter '{e.get('name')}' without args")
            for key, value in args.items():
                if not isinstance(value, (int, float)):
                    fail(f"{path}: event {i} counter '{e.get('name')}' "
                         f"arg '{key}' is not numeric")
            counters += 1
    for key, stack in stacks.items():
        if stack:
            fail(f"{path}: unclosed span '{stack[-1]}' on track {key}")
    for key, count in open_async.items():
        if count != 0:
            fail(f"{path}: unclosed async span {key}")
    unnamed = timed_pids - named_pids
    if unnamed:
        fail(f"{path}: pids without process_name metadata: {sorted(unnamed)}")
    if min_processes and len(timed_pids) < min_processes:
        fail(f"{path}: only {len(timed_pids)} pid tracks, "
             f"need at least {min_processes}")
    print(f"{path}: OK ({len(events)} events, {len(timed_pids)} pid tracks, "
          f"{counters} counter samples, monotonic, balanced)")


HISTOGRAM_FIELDS = ("count", "min", "max", "mean", "p50", "p90", "p99")


def validate_metrics(path, required):
    names = []
    with open_or_fail(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"{path}:{lineno}: not valid JSON: {e}")
            if not isinstance(obj, dict):
                fail(f"{path}:{lineno}: not a JSON object")
            name = obj.get("metric")
            kind = obj.get("type")
            if not isinstance(name, str) or not name:
                fail(f"{path}:{lineno}: missing metric name")
            if kind == "counter":
                if not isinstance(obj.get("value"), int):
                    fail(f"{path}:{lineno}: counter '{name}' value is not an integer")
            elif kind == "gauge":
                if not isinstance(obj.get("value"), (int, float)):
                    fail(f"{path}:{lineno}: gauge '{name}' value is not numeric")
            elif kind == "histogram":
                for field in HISTOGRAM_FIELDS:
                    if not isinstance(obj.get(field), (int, float)):
                        fail(f"{path}:{lineno}: histogram '{name}' missing '{field}'")
            else:
                fail(f"{path}:{lineno}: unknown type '{kind}'")
            names.append(name)
    if not names:
        fail(f"{path}: no metrics")
    if names != sorted(names):
        fail(f"{path}: metric names are not sorted")
    if len(set(names)) != len(names):
        fail(f"{path}: duplicate metric names")
    for want in required:
        if want.endswith(".*"):
            prefix = want[:-1]
            if not any(n.startswith(prefix) for n in names):
                fail(f"{path}: no metric matches required pattern '{want}'")
        elif want not in names:
            fail(f"{path}: required metric '{want}' is missing")
    print(f"{path}: OK ({len(names)} metrics, sorted, schema valid)")


def validate_timeseries(path):
    last = {}  # (point, series) -> last t_us
    lines = 0
    with open_or_fail(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"{path}:{lineno}: not valid JSON: {e}")
            point = obj.get("point")
            series = obj.get("series")
            t_us = obj.get("t_us")
            value = obj.get("value")
            if not isinstance(point, str) or not point:
                fail(f"{path}:{lineno}: missing point label")
            if not isinstance(series, str) or not series:
                fail(f"{path}:{lineno}: missing series name")
            if not isinstance(t_us, int):
                fail(f"{path}:{lineno}: t_us is not an integer")
            if not isinstance(value, (int, float)):
                fail(f"{path}:{lineno}: value is not numeric")
            key = (point, series)
            if key in last and t_us < last[key]:
                fail(f"{path}:{lineno}: series {key} goes backwards "
                     f"({t_us} after {last[key]})")
            last[key] = t_us
            lines += 1
    if not lines:
        fail(f"{path}: no samples")
    print(f"{path}: OK ({lines} samples, {len(last)} series, "
          f"nondecreasing per series)")


VALID_STATUSES = ("ok", "failed", "timeout")


def is_hex_digest(value):
    if not isinstance(value, str) or not value.startswith("0x"):
        return False
    try:
        int(value, 16)
    except ValueError:
        return False
    return True


JOURNAL_RECORD_PREFIX = b'{"index":'
JOURNAL_FRAME = re.compile(rb"#([0-9a-f]{8})(.+)", re.DOTALL)


def journal_frame_record(line):
    """The record line inside a frame whose CRC matches, else None."""
    match = JOURNAL_FRAME.fullmatch(line)
    if match is None or zlib.crc32(match.group(2)) != int(match.group(1), 16):
        return None
    return match.group(2)


def check_journal_record(path, lineno, line, points):
    """Validates one record line; returns its index."""
    try:
        obj = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        fail(f"{path}:{lineno}: not valid JSON: {e}")
    if not isinstance(obj, dict):
        fail(f"{path}:{lineno}: not a JSON object")
    index = obj.get("index")
    if not isinstance(index, int) or not 0 <= index < points:
        fail(f"{path}:{lineno}: index {index!r} out of range [0, {points})")
    if not is_hex_digest(obj.get("digest")):
        fail(f"{path}:{lineno}: digest is not a '0x...' string")
    status = obj.get("status")
    if status not in VALID_STATUSES:
        fail(f"{path}:{lineno}: status {status!r} not in {VALID_STATUSES}")
    attempts = obj.get("attempts")
    if not isinstance(attempts, int) or attempts < 1:
        fail(f"{path}:{lineno}: attempts {attempts!r} is not an integer >= 1")
    backoff = obj.get("backoff_ns")
    if not isinstance(backoff, int) or backoff < 0:
        fail(f"{path}:{lineno}: backoff_ns {backoff!r} is not an integer >= 0")
    if status == "ok":
        if not isinstance(obj.get("result"), str):
            fail(f"{path}:{lineno}: ok record without a 'result' payload")
    elif not isinstance(obj.get("error"), str):
        fail(f"{path}:{lineno}: {status} record without an 'error' message")
    return index


def validate_journal(path):
    try:
        with open(path, "rb") as f:
            lines = f.read().split(b"\n")
    except OSError as e:
        fail(f"{path}: cannot open: {e.strerror or e}")
    torn = 1 if lines.pop() else 0  # bytes after the last newline
    points = None
    seen = set()
    canonical = framed = corrupt = 0
    last_index = None
    in_log = False
    framed_lines = False  # a line starting with the frame marker was seen
    for lineno, line in enumerate(lines, 1):
        text = line.strip()
        if not text:
            if points is not None:
                corrupt += 1
            continue
        if points is None:
            try:
                obj = json.loads(text)
            except (json.JSONDecodeError, UnicodeDecodeError) as e:
                fail(f"{path}:{lineno}: not valid JSON: {e}")
            if not isinstance(obj, dict) or obj.get("craysim_journal") != 1:
                fail(f"{path}:{lineno}: missing craysim_journal version header")
            if not is_hex_digest(obj.get("sweep_digest")):
                fail(f"{path}:{lineno}: sweep_digest is not a '0x...' string")
            points = obj.get("points")
            if not isinstance(points, int) or points <= 0:
                fail(f"{path}:{lineno}: points is not a positive integer")
            continue
        if not in_log and text.startswith(JOURNAL_RECORD_PREFIX):
            index = check_journal_record(path, lineno, text, points)
            if last_index is not None and index <= last_index:
                fail(f"{path}:{lineno}: index {index} not strictly increasing "
                     f"(previous {last_index})")
            last_index = index
            canonical += 1
        else:
            if not framed_lines and text.startswith(JOURNAL_RECORD_PREFIX):
                fail(f"{path}:{lineno}: record after a damaged canonical record")
            framed_lines = framed_lines or text.startswith(b"#")
            in_log = True
            record = journal_frame_record(line)
            if record is None:
                corrupt += 1
                continue
            index = check_journal_record(path, lineno, record, points)
            framed += 1
        if index in seen:
            fail(f"{path}:{lineno}: duplicate record for point {index}")
        seen.add(index)
    if points is None:
        fail(f"{path}: empty journal (no complete header line)")
    print(f"{path}: OK ({len(seen)} of {points} points settled: {canonical} canonical, "
          f"{framed} framed; torn {torn}, corrupt {corrupt})")


PROM_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
PROM_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")
PROM_SAMPLE = re.compile(
    r"([a-zA-Z_:][a-zA-Z0-9_:]*)"          # metric name
    r"(?:\{([^}]*)\})?"                     # optional {labels}
    r"\s+(-?[0-9.eE+\-]+|[+-]?Inf|NaN)$"    # value
)
PROM_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def prom_family_of(name):
    """The family a sample belongs to: histogram/summary samples drop their
    _bucket/_sum/_count suffix."""
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def validate_prom(path):
    helps = {}      # family -> lineno of its HELP line
    types = {}      # family -> declared type
    series = set()  # (name, sorted label tuple) seen
    buckets = {}    # family -> list of (le, count) in file order
    counts = {}     # family -> value of <family>_count
    samples = 0
    with open_or_fail(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("# HELP "):
                parts = line.split(None, 3)
                if len(parts) < 4:
                    fail(f"{path}:{lineno}: HELP line without text")
                if parts[2] in helps:
                    fail(f"{path}:{lineno}: duplicate HELP for '{parts[2]}'")
                helps[parts[2]] = lineno
                continue
            if line.startswith("# TYPE "):
                parts = line.split()
                if len(parts) != 4 or parts[3] not in PROM_TYPES:
                    fail(f"{path}:{lineno}: malformed TYPE line: {line!r}")
                if parts[2] in types:
                    fail(f"{path}:{lineno}: duplicate TYPE for '{parts[2]}'")
                types[parts[2]] = parts[3]
                continue
            if line.startswith("#"):
                continue  # free-form comment
            match = PROM_SAMPLE.match(line)
            if not match:
                fail(f"{path}:{lineno}: unparseable sample line: {line!r}")
            name, label_text, value_text = match.groups()
            labels = []
            if label_text:
                consumed = PROM_LABEL.sub("", label_text).strip(", \t")
                if consumed:
                    fail(f"{path}:{lineno}: malformed labels: {{{label_text}}}")
                labels = PROM_LABEL.findall(label_text)
                keys = [k for k, _ in labels]
                if len(set(keys)) != len(keys):
                    fail(f"{path}:{lineno}: repeated label key in {{{label_text}}}")
            try:
                value = float(value_text)
            except ValueError:
                fail(f"{path}:{lineno}: non-numeric value {value_text!r}")
            family = prom_family_of(name)
            if family not in types:
                fail(f"{path}:{lineno}: sample '{name}' precedes its TYPE line")
            key = (name, tuple(sorted(labels)))
            if key in series:
                fail(f"{path}:{lineno}: duplicate series {name}{{{label_text or ''}}}")
            series.add(key)
            if types.get(family) == "histogram" and name.endswith("_bucket"):
                le = dict(labels).get("le")
                if le is None:
                    fail(f"{path}:{lineno}: histogram bucket without le label")
                buckets.setdefault(family, []).append((le, value))
            if name.endswith("_count"):
                counts[family] = value
            if types.get(family) == "summary" and name == family:
                quantile = dict(labels).get("quantile")
                if quantile is None or not 0.0 <= float(quantile) <= 1.0:
                    fail(f"{path}:{lineno}: summary sample without a quantile "
                         f"label in [0, 1]")
            samples += 1
    for family in types:
        if family not in helps:
            fail(f"{path}: family '{family}' has TYPE but no HELP")
    for family in helps:
        if family not in types:
            fail(f"{path}: family '{family}' has HELP but no TYPE")
    for family, pairs in buckets.items():
        last = None
        for le, count in pairs:
            bound = float("inf") if le == "+Inf" else float(le)
            if last is not None:
                if bound <= last[0]:
                    fail(f"{path}: histogram '{family}' bucket le={le} not "
                         f"increasing")
                if count < last[1]:
                    fail(f"{path}: histogram '{family}' bucket le={le} count "
                         f"{count} < previous {last[1]} (not cumulative)")
            last = (bound, count)
        if last is None or last[0] != float("inf"):
            fail(f"{path}: histogram '{family}' does not end at le=\"+Inf\"")
        if family in counts and last[1] != counts[family]:
            fail(f"{path}: histogram '{family}' +Inf bucket {last[1]} != "
                 f"{family}_count {counts[family]}")
    if not samples:
        fail(f"{path}: no samples")
    print(f"{path}: OK ({samples} samples, {len(types)} families, "
          f"{len(buckets)} histograms, HELP/TYPE paired, no duplicate series)")


ATTR_OP_COMPONENTS = (
    "fs_call", "hit", "readahead", "absorb", "miss", "space", "interrupt", "sched",
)
ATTR_DISK_COMPONENTS = ("queue", "overhead", "seek", "rotation", "transfer", "fault")
ATTR_DISK_KINDS = ("fetch", "readahead", "flush", "writethrough", "bypass")
ATTR_SCOPES = ("file", "proc", "phase", "size")


def attr_components_of(path, lineno, obj, expected_names):
    """The line's components dict, checked against the pinned name set.
    Individual components may be negative (a completion can land inside the
    fs-call window), so only the sum is constrained — by the caller."""
    components = obj.get("components")
    if not isinstance(components, dict) or tuple(components) != expected_names:
        fail(f"{path}:{lineno}: components keys {tuple(components or ())!r} != "
             f"{expected_names}")
    for name, value in components.items():
        if not isinstance(value, int):
            fail(f"{path}:{lineno}: component '{name}' is not an integer")
    return components


def attr_check_entry(path, lineno, obj):
    """Shared checks for total/file/proc/phase/size lines; returns
    (ops, io_time_us)."""
    for field in ("ops", "write_ops", "bytes", "io_time_us"):
        if not isinstance(obj.get(field), int):
            fail(f"{path}:{lineno}: '{field}' is not an integer")
    if not 0 <= obj["write_ops"] <= obj["ops"]:
        fail(f"{path}:{lineno}: write_ops {obj['write_ops']} outside "
             f"[0, ops={obj['ops']}]")
    if obj["bytes"] < 0:
        fail(f"{path}:{lineno}: negative bytes")
    components = attr_components_of(path, lineno, obj, ATTR_OP_COMPONENTS)
    if sum(components.values()) != obj["io_time_us"]:
        fail(f"{path}:{lineno}: components sum {sum(components.values())} != "
             f"io_time_us {obj['io_time_us']} (conservation leak)")
    return obj["ops"], obj["io_time_us"]


def validate_attr(path):
    # point -> {"total": (ops, io_time_us) | None, "hist": bool,
    #           scope -> [(ops, io_time_us)]}
    points = {}
    lines = 0
    with open_or_fail(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"{path}:{lineno}: not valid JSON: {e}")
            if not isinstance(obj, dict):
                fail(f"{path}:{lineno}: not a JSON object")
            kind = obj.get("type")
            point = obj.get("point")
            if not isinstance(point, str) or not point:
                fail(f"{path}:{lineno}: missing point label")
            state = points.setdefault(
                point, {"total": None, "hist": None,
                        **{scope: [] for scope in ATTR_SCOPES}})
            if kind == "total":
                if state["total"] is not None:
                    fail(f"{path}:{lineno}: second total line for point "
                         f"'{point}'")
                state["total"] = attr_check_entry(path, lineno, obj)
            elif kind in ATTR_SCOPES:
                if not isinstance(obj.get("key"), str) or not obj["key"]:
                    fail(f"{path}:{lineno}: {kind} line without a key")
                state[kind].append(attr_check_entry(path, lineno, obj))
            elif kind == "disk":
                if obj.get("kind") not in ATTR_DISK_KINDS:
                    fail(f"{path}:{lineno}: disk kind {obj.get('kind')!r} not "
                         f"in {ATTR_DISK_KINDS}")
                if not isinstance(obj.get("total_us"), int):
                    fail(f"{path}:{lineno}: disk 'total_us' is not an integer")
                components = attr_components_of(path, lineno, obj,
                                                ATTR_DISK_COMPONENTS)
                if sum(components.values()) != obj["total_us"]:
                    fail(f"{path}:{lineno}: disk components sum "
                         f"{sum(components.values())} != total_us "
                         f"{obj['total_us']}")
            elif kind == "latency_hist":
                if state["hist"] is not None:
                    fail(f"{path}:{lineno}: second latency_hist line for "
                         f"point '{point}'")
                buckets = obj.get("buckets")
                if not isinstance(buckets, dict) or not buckets:
                    fail(f"{path}:{lineno}: latency_hist without buckets")
                if tuple(buckets)[-1] != "le_inf":
                    fail(f"{path}:{lineno}: latency buckets do not end at "
                         f"le_inf")
                for name, count in buckets.items():
                    if not isinstance(count, int) or count < 0:
                        fail(f"{path}:{lineno}: bucket '{name}' count is not "
                             f"an integer >= 0")
                if not isinstance(obj.get("ops"), int):
                    fail(f"{path}:{lineno}: latency_hist 'ops' is not an "
                         f"integer")
                state["hist"] = (obj["ops"], sum(buckets.values()))
            else:
                fail(f"{path}:{lineno}: unknown type {kind!r}")
            lines += 1
    if not points:
        fail(f"{path}: no attribution lines")
    for point, state in points.items():
        if state["total"] is None:
            fail(f"{path}: point '{point}' has no total line")
        total_ops, total_us = state["total"]
        for scope in ATTR_SCOPES:
            # An empty scope list is legal only for an idle point (a
            # journal-restored point whose ledger never ran records 0 ops).
            scope_ops = sum(ops for ops, _ in state[scope])
            scope_us = sum(us for _, us in state[scope])
            if scope_ops != total_ops or scope_us != total_us:
                fail(f"{path}: point '{point}' {scope} rows sum to "
                     f"({scope_ops} ops, {scope_us} us), total says "
                     f"({total_ops} ops, {total_us} us)")
        if state["hist"] is None:
            fail(f"{path}: point '{point}' has no latency_hist line")
        hist_ops, hist_sum = state["hist"]
        if hist_ops != total_ops or hist_sum != total_ops:
            fail(f"{path}: point '{point}' latency_hist counts sum to "
                 f"{hist_sum} (header says {hist_ops}), total says "
                 f"{total_ops} ops")
    print(f"{path}: OK ({lines} lines, {len(points)} points, conservation "
          f"exact per scope)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--perfetto", help="Chrome trace-event JSON file")
    parser.add_argument("--metrics", help="metrics snapshot JSONL file")
    parser.add_argument("--timeseries", help="counter time-series JSONL file")
    parser.add_argument("--journal", help="sweep checkpoint/resume journal file")
    parser.add_argument("--prom", help="Prometheus text exposition (/metrics scrape)")
    parser.add_argument("--attr", help="latency attribution JSONL file")
    parser.add_argument(
        "--min-processes",
        type=int,
        default=0,
        help="minimum number of distinct pid tracks the Perfetto file must have",
    )
    parser.add_argument(
        "--require",
        action="append",
        default=[],
        help="metric name (or 'prefix.*') that must be present; repeatable",
    )
    args = parser.parse_args()
    if not args.perfetto and not args.metrics and not args.timeseries \
            and not args.journal and not args.prom and not args.attr:
        parser.error("nothing to validate: pass --perfetto, --metrics, "
                     "--timeseries, --journal, --prom, and/or --attr")
    if args.perfetto:
        validate_perfetto(args.perfetto, args.min_processes)
    if args.metrics:
        validate_metrics(args.metrics, args.require)
    if args.timeseries:
        validate_timeseries(args.timeseries)
    if args.journal:
        validate_journal(args.journal)
    if args.prom:
        validate_prom(args.prom)
    if args.attr:
        validate_attr(args.attr)


if __name__ == "__main__":
    main()
