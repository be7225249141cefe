"""Run one graphdsp CLI command with a span around every layer call.

Usage::

    PYTHONPATH=src python perfbench/trace_cli.py SPANS_JSON COMMAND_ID -- ARGV...

It imports ``graphdsp.cli``, replaces each public function of the layer
modules by a timing wrapper (on the defining module and on every module
that imported the name), wraps ``Graph.spectral_radius`` as a property,
then calls ``graphdsp.cli.main(ARGV)``.  Spans are kept in memory and
written to SPANS_JSON when the command returns; the exit code is the
command's.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("graph", "fileio", "spectral", "filtering", "applications")
# Distance functions run once per point pair inside build_knn_graph; a span
# each would time the tracer, so their cost stays in that span's self time.
UNWRAPPED = {"euclidean", "haversine_km"}


class Tracer:
    def __init__(self, command_id):
        self.command_id = command_id
        self.spans = []
        self._stack = []

    def wrap(self, fn, layer, name=None):
        name = name or fn.__name__
        spans, stack, command_id = self.spans, self._stack, self.command_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = {"name": name, "layer": layer, "start": start,
                              "end": end, "parent": parent, "command": command_id}
            value = _span_value(name, result)
            if value is not None:
                spans[idx]["value"] = value
            return result

        return traced


def _span_value(name, result):
    """Health and size values read off a layer's result, outside its span."""
    if name == "decompose":
        return float(result.basis_condition)
    if name == "ideal_response":
        return int(result.m)
    return None


def install(tracer):
    """Wrap the layers' public functions everywhere graphdsp refers to them."""
    from graphdsp import graph

    modules = [sys.modules[m] for m in list(sys.modules)
               if m == "graphdsp" or m.startswith("graphdsp.")]
    wrapped = {}
    for layer in LAYERS:
        mod = sys.modules[f"graphdsp.{layer}"]
        for name, fn in vars(mod).items():
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and not name.startswith("_") and name not in UNWRAPPED):
                wrapped[fn] = tracer.wrap(fn, layer)
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, name, wrapped[obj])
    radius = graph.Graph.spectral_radius
    graph.Graph.spectral_radius = property(
        tracer.wrap(radius.fget, "graph", "spectral_radius"), doc=radius.__doc__)


def main(argv):
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 1
    spans_path, command_id, cli_argv = argv[0], argv[1], argv[3:]
    t0 = time.perf_counter()
    import graphdsp.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer(command_id)
    install(tracer)
    start = time.perf_counter()
    code = graphdsp.cli.main(cli_argv)
    end = time.perf_counter()
    doc = {"command": command_id, "import_s": import_s, "start": start,
           "end": end, "exit_code": code, "spans": tracer.spans}
    with open(spans_path, "w") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
