"""Span-file analysis for the benchmark's traced runs.

The benchmark binary writes every span of a traced replay to one file
(format in skbench/src/spans.hpp). This module reads it back and derives
the per-layer metrics:

* a layer's self time is its span's duration minus the part of that
  interval its child spans cover;
* per-call metrics average a layer's self time over its calls, per-root
  metrics sum it per trial (or tracking run) and average over those;
* trial latency percentiles come from the untraced replay's root spans,
  reported as the median and the highest percentile with at least ten
  samples beyond it;
* the tracing overhead compares the traced replay's root spans with the
  untraced replay's root spans of the same seeds.
"""

import math
import struct
from collections import namedtuple

Span = namedtuple("Span", "name parent trial start end")

_RECORD = struct.Struct("<Iiqqq")

# Metric name -> span name, averaged per call, in microseconds.
PER_CALL_US = {
    "adversary.graph_into_us": "adversary.graph_into",
    "kset.send_into_us": "kset.send_into",
    "kset.transition_us": "kset.transition",
    "rounds.step_self_us": "rounds.step",
    "net.step_self_us": "net.step",
    "skeleton.observe_us": "skeleton.observe",
    "predicates.psrcs_exact_us": "predicates.psrcs_exact",
    "mc.fold_us": "mc.fold",
    "campaign.ckpt_encode_us": "campaign.ckpt_encode",
    "campaign.ckpt_decode_us": "campaign.ckpt_decode",
}

# Metric name -> span name, summed per traced root span, in seconds.
PER_ROOT_S = {
    "skeleton.construct_s": "skeleton.construct",
    "skeleton.observe_s": "skeleton.observe",
    "graph.scc_s": "graph.current_scc",
}

# Traced root span name -> the untraced root span of the same work.
ROOTS = {"trial": "trial.untraced", "track": "track.untraced"}

PERCENTILE_LEVELS = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)


def read_spans(path):
    """Returns the spans of a span file, in the order they began."""
    with open(path, "rb") as handle:
        data = handle.read()
    if data[:4] != b"SKSP":
        raise ValueError(f"{path}: not a span file")
    offset = 4
    (name_count,) = struct.unpack_from("<I", data, offset)
    offset += 4
    names = []
    for _ in range(name_count):
        (length,) = struct.unpack_from("<H", data, offset)
        offset += 2
        names.append(data[offset:offset + length].decode("ascii"))
        offset += length
    (span_count,) = struct.unpack_from("<Q", data, offset)
    offset += 8
    end = offset + span_count * _RECORD.size
    if end != len(data):
        raise ValueError(f"{path}: truncated or oversized span table")
    return [Span(names[n], parent, trial, start, stop)
            for n, parent, trial, start, stop
            in _RECORD.iter_unpack(data[offset:end])]


def covered_length(start, end, intervals):
    """Length of [start, end] covered by the union of `intervals`."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals
                     if min(b, end) > max(a, start))
    covered = 0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        covered += run_end - run_start
    return covered


def self_times(spans):
    """Each span's duration minus the part its children cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [span.end - span.start - covered_length(span.start, span.end, kids)
            for span, kids in zip(spans, children)]


def root_indices(spans):
    """For each span, the index of the root span above it (parents
    always begin, and so appear, before their children)."""
    roots = []
    for span in spans:
        roots.append(len(roots) if span.parent < 0 else roots[span.parent])
    return roots


def nearest_rank(sorted_samples, level):
    """The nearest-rank percentile `level` of ascending samples."""
    rank = max(1, math.ceil(level / 100.0 * len(sorted_samples)))
    return sorted_samples[rank - 1]


def tail_percentile(samples, min_beyond=10, levels=PERCENTILE_LEVELS):
    """The highest percentile in `levels` that has at least `min_beyond`
    samples above it, as (level, value, sample count); None when no
    level qualifies."""
    ordered = sorted(samples)
    count = len(ordered)
    for level in sorted(levels, reverse=True):
        rank = max(1, math.ceil(level / 100.0 * count))
        if count - rank >= min_beyond:
            return level, ordered[rank - 1], count
    return None


def layer_metrics(spans):
    """Per-layer metrics derived from a traced run's spans, as
    {name: (value, unit)}. Layers the workload never crossed read 0."""
    selfs = self_times(spans)
    roots = root_indices(spans)
    self_total = {}
    calls = {}
    rooted_total = {}
    for span, self_ns, root in zip(spans, selfs, roots):
        self_total[span.name] = self_total.get(span.name, 0) + self_ns
        calls[span.name] = calls.get(span.name, 0) + 1
        if spans[root].name in ROOTS:
            rooted_total[span.name] = rooted_total.get(span.name, 0) + self_ns

    metrics = {}
    for metric, name in PER_CALL_US.items():
        count = calls.get(name, 0)
        metrics[metric] = (self_total.get(name, 0) / count / 1e3
                           if count else 0.0, "us")
    traced_roots = sum(calls.get(name, 0) for name in ROOTS)
    for metric, name in PER_ROOT_S.items():
        metrics[metric] = (rooted_total.get(name, 0) / traced_roots / 1e9
                           if traced_roots else 0.0, "s")

    trial_us = [(s.end - s.start) / 1e3 for s in spans
                if s.name == "trial.untraced"]
    tail = tail_percentile(trial_us)
    metrics["kset.trial_us.p50"] = (
        nearest_rank(sorted(trial_us), 50.0) if trial_us else 0.0, "us")
    metrics["kset.trial_us.tail"] = (tail[1] if tail else 0.0, "us")
    metrics["kset.trial_us.tail_pct"] = (tail[0] if tail else 0.0, "pct")
    metrics["kset.trial_us.samples"] = (float(len(trial_us)), "count")

    traced_ns = sum(s.end - s.start for s in spans if s.name in ROOTS)
    untraced_ns = sum(s.end - s.start for s in spans
                      if s.name in ROOTS.values())
    metrics["trace.overhead_pct"] = (
        100.0 * (traced_ns / untraced_ns - 1.0) if untraced_ns else 0.0,
        "pct")
    return metrics
