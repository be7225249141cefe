"""Per-layer metrics from the spans one traced command wrote.

A span's self time is its duration minus the durations of its child spans;
children nest strictly inside their parent because the program runs on one
thread.  Times and call counts are summed over a pipeline's commands;
``spectral.basis_condition`` and ``filtering.distinct_frequencies`` are the
largest value seen.
"""

from __future__ import annotations

from collections import defaultdict

from trace_cli import LAYERS

DESIGN = {"design_ideal_filter", "ideal_response", "design_filter"}
EDGE_WRITER = "write_edge_list"

# metric -> (function name, what is summed: "total" duration, "self" time
# or "calls"); each function's layer is the metric's prefix
NAMED = {
    "graph.build_knn_graph_s": ("build_knn_graph", "total"),
    "graph.spectral_radius_s": ("spectral_radius", "total"),
    "graph.spectral_radius_calls": ("spectral_radius", "calls"),
    "fileio.write_edge_list_s": ("write_edge_list", "total"),
    "fileio.read_edge_list_s": ("read_edge_list", "total"),
    "fileio.read_signal_s": ("read_signal", "total"),
    "spectral.decompose_s": ("decompose", "total"),
    "spectral.decompose_calls": ("decompose", "calls"),
    "spectral.order_frequencies_s": ("order_frequencies", "total"),
    "spectral.gft_s": ("gft", "total"),
    "filtering.apply_filter_s": ("apply_filter", "total"),
    "filtering.apply_filter_calls": ("apply_filter", "calls"),
    "applications.detect_malfunction_s": ("detect_malfunction", "self"),
    "applications.classify_s": ("classify", "total"),
    "applications.classify_calls": ("classify", "calls"),
    "applications.sweep_alpha_s": ("sweep_alpha", "self"),
}
LARGEST = ("spectral.basis_condition", "filtering.distinct_frequencies")


def command_metrics(doc):
    """Per-layer metrics of one traced command, and the functions it called.

    ``cli.self_s`` is the command's traced wall time minus the time covered
    by layer spans, so the layers' self times plus ``cli.self_s`` add up to
    ``cli.main_s``; ``identity_error`` is what that sum misses by.
    """
    spans = doc["spans"]
    dur = [s["end"] - s["start"] for s in spans]
    own = list(dur)
    for s, d in zip(spans, dur):
        if s["parent"] is not None:
            own[s["parent"]] -= d
    total, self_t, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    m = defaultdict(float)
    for i, s in enumerate(spans):
        name = s["name"]
        total[name] += dur[i]
        self_t[name] += own[i]
        calls[name] += 1
        m[f"{s['layer']}.self_s"] += own[i]
        if name.startswith("write_") and name != EDGE_WRITER:
            m["fileio.write_s"] += dur[i]
        if name in DESIGN and not _inside(spans, i, DESIGN):
            m["filtering.design_s"] += dur[i]
        if name == "decompose":
            m["spectral.basis_condition"] = max(m["spectral.basis_condition"], s["value"])
        if name == "ideal_response":
            m["filtering.distinct_frequencies"] = max(
                m["filtering.distinct_frequencies"], s["value"])
    for metric, (name, kind) in NAMED.items():
        m[metric] = {"total": total, "self": self_t, "calls": calls}[kind].get(name, 0)
    wall = doc["end"] - doc["start"]
    top = sum(d for s, d in zip(spans, dur) if s["parent"] is None)
    m["cli.main_s"] = wall
    m["cli.import_s"] = doc["import_s"]
    m["cli.self_s"] = wall - top
    layer_sum = sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["cli.self_s"]
    return dict(m), set(calls), abs(layer_sum - wall)


def _inside(spans, i, names):
    p = spans[i]["parent"]
    while p is not None:
        if spans[p]["name"] in names:
            return True
        p = spans[p]["parent"]
    return False


def pipeline_metrics(per_command):
    """Sum (or take the largest of) per-command metrics over a pipeline."""
    out = defaultdict(float)
    for m in per_command:
        for key, value in m.items():
            out[key] = max(out[key], value) if key in LARGEST else out[key] + value
    return dict(out)
