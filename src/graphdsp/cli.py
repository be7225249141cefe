"""Command-line driver for the whole pipeline.

One binary with subcommands: synthetic graph generation, spectrum inspection,
filter design, signal filtering, anomaly detection, and label classification.
``spectrum`` writes ``spectrum.json``: the eigenvalues, their variations and
frequency order, and ``basis_condition``, cond2 of the eigenvector matrix
with unit 2-norm columns.  That condition is exactly 1 on an undirected
graph, so there ``spectrum`` and ``design`` compute eigenvalues alone; on a
directed graph they build the eigenbasis, which may be refused, and
``spectrum`` its exact cond2.  ``filter`` applies h(A/rho) by repeated
shifts, which needs the spectral radius alone; it builds the eigenbasis only
for ``--spectra``, which also writes the signal's spectrum before and after.
Every run writes a ``manifest.json`` next to its outputs, derived from the
parsed command line: the ``command`` (argv), the ``config`` (every parsed
argument, defaults included), the sha256 of each file it read (``inputs``:
the arguments named in ``INPUTS``), the sha256 of each file written
(``outputs``, in write order), and the ``environment`` that the basis
cache's key hashes (``basis_cache.environment()``).  ``--out`` is made at
the first write, so a command failing before it leaves no directory.
The commands that read a graph (``spectrum``, ``design``, ``filter``,
``detect`` and ``classify``) read it through the per-user cache in
``$XDG_CACHE_HOME/graphdsp``, or ``~/.cache/graphdsp`` (``basis_cache``),
keyed by the file's bytes, and record ``graph: {"cache": "hit" | "miss" |
"unavailable", "key": ...}``; those that build a spectrum (``spectrum``,
``design``, ``detect`` and ``filter --spectra``) read it through the same
cache and record ``basis`` alike.  A hit is served, a miss computed and
stored, and an unavailable cache (no absolute home directory, a directory
that cannot be written, an entry larger than its bound) computed alone; the
key is null where none was looked up.  A hit writes the bytes a miss writes.
``rerun`` refuses a manifest that records no output digests, or whose
inputs no longer match theirs; otherwise it replays its argv, which
reproduces the outputs bit for bit under the graphdsp version that wrote
it, and exits 1 naming every output whose sha256 differs from the recorded
one, and each field of the environment that differs from the recorded one
(or that the environment matches).
``graphdsp --verbose <command>`` prints the library's debug records to
stderr: the cache's outcome and key for the graph and for the spectrum,
the solver and condition path of each computed ``decompose``, the path of
each cold spectral radius (certified in numpy by its logged bracket, or the
dense fallback) and the path and residual of each classifier solve.  No
command loads scipy.

Exit codes: 0 success, 1 bad input or arguments, 2 numerical refusal: a
near-defective adjacency in a command that builds the eigenbasis
(``detect`` and ``filter --spectra``; ``spectrum`` and ``design`` on a
directed graph), or a singular regularization system.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys

from . import basis_cache, fileio
from .applications import (
    ClassifierConfig,
    DetectorConfig,
    SingularSystemError,
    classify,
    detect_malfunction,
    standard_alpha_grid,
    sweep_alpha,
)
from .filtering import apply_filter, design_ideal_filter, frequency_response
from .generators import cycle_graph, path_graph, regular_graph, sbm_graph
from .graph import build_knn_graph, euclidean, haversine_km
from .spectral import NearDefectiveError, decompose, gft, order_frequencies, spectrum

log = logging.getLogger("graphdsp")
METRICS = {"euclidean": euclidean, "haversine": haversine_km}
# the arguments that name a file a command reads
INPUTS = ("points", "graph", "filter", "signal", "history", "current", "labels", "truth")


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _output(args, name):
    """The path of output ``name`` in ``--out``, which this creates; the name
    joins the manifest's outputs, in the order the files are written."""
    os.makedirs(args.out, exist_ok=True)
    args.outputs.append(name)
    return os.path.join(args.out, name)


def _graph(args):
    """The graph of ``args.graph``, read through the per-user cache; the
    outcome goes to the manifest."""
    g = fileio.read_edge_list(args.graph, cache=args.cache)
    args.graph_cache, args.digests[args.graph] = _outcome(args, g), g._sha256
    return g


def _spectrum(args, g, basis=False):
    """The graph's ``spectrum``, or with ``basis`` its ``decompose``, through
    the per-user cache; the outcome goes to the manifest."""
    sp = (decompose if basis else spectrum)(g, cache=args.cache)
    args.basis = _outcome(args, sp)
    return sp


def _outcome(args, x):
    """The cache outcome and key recorded on ``x``, a graph or spectrum read
    through ``args.cache``."""
    if args.cache is None:
        log.debug("basis_cache: unavailable, the home directory is not an absolute path")
    return x.__dict__.get("_cache", {"cache": "unavailable", "key": None})


def _finish(args):
    """Write the run manifest next to the outputs: the command line, the
    parsed arguments, the digests of the files named by ``INPUTS`` and of
    the outputs, and the environment that the basis cache's key hashes."""
    named = (getattr(args, name, None) for name in INPUTS)
    paths = [p for v in named if v for p in (v if isinstance(v, list) else [v])]
    doc = {
        "command": list(args.argv),
        "inputs": {p: args.digests.get(p) or _sha256(p) for p in paths},
        "config": args.config,
        "outputs": {name: _sha256(os.path.join(args.out, name)) for name in args.outputs},
        "environment": basis_cache.environment(),
    }
    for name, outcome in (("graph", args.graph_cache), ("basis", args.basis)):
        if outcome is not None:
            doc[name] = outcome
    fileio._write_json(os.path.join(args.out, "manifest.json"), doc)
    return 0


def _parse_kind(text):
    """Split 'lowpass' / 'highpass' / 'bandpass:<lo>:<hi>' into kind + band."""
    parts = text.split(":")
    kind = parts[0].lower()
    if kind in ("lowpass", "highpass"):
        if len(parts) != 1:
            raise ValueError(f"{kind} takes no band suffix")
        return kind, None
    if kind == "bandpass":
        if len(parts) != 3:
            raise ValueError("bandpass kind must look like bandpass:<lo>:<hi>")
        try:
            return kind, (int(parts[1]), int(parts[2]))
        except ValueError:
            raise ValueError(f"non-integer bandpass ranks in {text!r}") from None
    raise ValueError(f"unknown filter kind {text!r}")


def _cmd_gen(args):
    labels = None
    if args.kind == "cycle":
        g = cycle_graph(args.n)
    elif args.kind == "path":
        g = path_graph(args.n)
    elif args.kind == "regular":
        g = regular_graph(args.n, args.d, seed=args.seed)
    elif args.kind == "knn":
        points = fileio.read_points(args.points)
        g = build_knn_graph(points, args.k, metric=METRICS[args.metric],
                            unweighted=args.unweighted,
                            symmetrize=args.symmetrize)
    else:
        g, labels = sbm_graph(args.n, args.p, args.q, seed=args.seed)
    fileio.write_edge_list(_output(args, "graph.tsv"), g)
    if labels is not None:
        fileio.write_signal(_output(args, "labels.csv"), labels.labels)
    return _finish(args)


def _cmd_spectrum(args):
    g = _graph(args)
    sp = _spectrum(args, g)
    fileio.write_spectrum(_output(args, "spectrum.json"), sp, order_frequencies(sp))
    return _finish(args)


def _cmd_design(args):
    g = _graph(args)
    kind, band = _parse_kind(args.kind)
    design = design_ideal_filter(_spectrum(args, g, g.directed), kind, args.degree, band)
    fileio.write_filter(_output(args, "filter.json"), design.filter)
    fileio.write_design_report(_output(args, "design.json"), design)
    return _finish(args)


def _cmd_filter(args):
    g = _graph(args)
    filt = fileio.read_filter(args.filter)
    s = g.signal(fileio.read_signal(args.signal))
    # h(A/rho) s needs rho alone; the spectra alone build a basis, whose hit
    # restores rho: before any write, so a defective graph leaves none
    b = _spectrum(args, g, basis=True) if args.spectra else None
    result = apply_filter(g, filt, s)
    fileio.write_signal(_output(args, "filtered.csv"), result.values)
    if b is not None:
        fileio.write_spectra(_output(args, "spectra.csv"), gft(b, s), gft(b, result),
                             frequency_response(b, filt))
    return _finish(args)


def _cmd_detect(args):
    g = _graph(args)
    b = _spectrum(args, g, basis=True)
    if args.filter:
        filt = fileio.read_filter(args.filter)
    else:
        filt = design_ideal_filter(b, "highpass", args.degree).filter
    cfg = DetectorConfig(filter=filt, window=args.window,
                         threshold_scale=args.threshold_scale,
                         calibration=args.calibration)
    history = [g.signal(fileio.read_signal(p)) for p in args.history]
    current = g.signal(fileio.read_signal(args.current))
    report = detect_malfunction(g, b, cfg, history, current)
    fileio.write_detection_report(_output(args, "detection.json"), report)
    return _finish(args)


def _parse_grid(text):
    if text == "standard":
        return standard_alpha_grid()
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"bad alpha grid {text!r}") from None
    if not values:
        raise ValueError("alpha grid is empty")
    return values


def _cmd_classify(args):
    if args.truth and not args.sweep:  # the manifest would record a file not read
        raise ValueError("--truth is read only with --sweep")
    g = _graph(args)
    labels = fileio.read_labels(args.labels)
    if args.sweep:
        if not args.truth:
            raise ValueError("--sweep needs --truth with full ground-truth labels")
        truth = fileio.read_labels(args.truth)
        sweep = sweep_alpha(g, truth, args.form, _parse_grid(args.sweep),
                            float(labels.known_mask.mean()), args.runs, seed=args.seed)
        fileio.write_accuracy_table(_output(args, "accuracy.csv"), sweep)
    else:
        result = classify(g, labels, ClassifierConfig(alpha=args.alpha, form=args.form))
        fileio.write_predictions(_output(args, "predictions.csv"), result)
    return _finish(args)


def _cmd_rerun(args):
    with open(args.manifest) as fh:
        doc = json.load(fh)
    command = doc.get("command") if isinstance(doc, dict) else None
    if not isinstance(command, list) or not command:
        raise ValueError(f"{args.manifest}: manifest has no recorded command")
    inputs, outputs = doc.get("inputs", {}), doc.get("outputs")
    if not isinstance(inputs, dict):
        raise ValueError(f"{args.manifest}: recorded inputs are not a mapping")
    if not isinstance(outputs, dict) or not outputs:
        raise ValueError(f"{args.manifest}: manifest records no output digests, "
                         f"so a replay could not be checked")
    for path, digest in inputs.items():
        if _sha256(path) != digest:
            raise ValueError(f"{args.manifest}: input {path} has changed since "
                             f"the recorded run")
    argv = [str(v) for v in command]
    if args.out is not None:
        if "--out" in argv:
            i = argv.index("--out") + 1
            if i == len(argv):
                raise ValueError(f"{args.manifest}: recorded --out has no directory")
            argv[i] = args.out
        else:
            argv += ["--out", args.out]
    code = main(argv)
    if code:
        return code
    out = _build_parser().parse_args(argv).out
    differ = [name for name, digest in outputs.items()
              if not os.path.isfile(os.path.join(out, name))
              or _sha256(os.path.join(out, name)) != digest]
    if differ:
        recorded = doc.get("environment")
        recorded = recorded if isinstance(recorded, dict) else {}
        fields = [k for k, v in basis_cache.environment().items()
                  if k not in recorded or recorded[k] != v]
        cause = f"differs in: {', '.join(fields)}" if fields else "matches"
        print(f"error: {args.manifest}: replayed output differs from the recorded "
              f"run (environment {cause}): {', '.join(differ)}", file=sys.stderr)
        return 1
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="graphdsp",
        description="Signal processing on graphs via the adjacency shift.",
    )
    parser.add_argument("--verbose", action="store_true",
                        help="print the library's debug records to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=".", help="output directory")

    gen = sub.add_parser("gen", help="generate a synthetic graph")
    gen.set_defaults(func=_cmd_gen)
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    for kind in ("cycle", "path"):
        p = gen_sub.add_parser(kind, parents=[out])
        p.add_argument("n", type=int)
    p = gen_sub.add_parser("regular", parents=[out])
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--seed", type=int, default=0)
    p = gen_sub.add_parser("knn", parents=[out])
    p.add_argument("points", help="CSV point cloud, one coordinate row per node")
    p.add_argument("k", type=int)
    p.add_argument("--metric", choices=sorted(METRICS), default="euclidean")
    p.add_argument("--symmetrize", action="store_true")
    p.add_argument("--unweighted", action="store_true")
    p = gen_sub.add_parser("sbm", parents=[out])
    p.add_argument("n", type=int)
    p.add_argument("p", type=float)
    p.add_argument("q", type=float)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("spectrum", parents=[out],
                       help="eigenvalues, variations, and ordering")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("design", parents=[out], help="fit taps to an ideal response")
    p.add_argument("graph")
    p.add_argument("--kind", required=True,
                   help="lowpass | highpass | bandpass:<lo>:<hi>")
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("filter", parents=[out],
                       help="apply a filter file to a signal file")
    p.add_argument("graph")
    p.add_argument("filter")
    p.add_argument("signal")
    p.add_argument("--spectra", action="store_true",
                   help="also write spectra.csv, which needs the eigenbasis")
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("detect", parents=[out],
                       help="threshold high-pass spectra against history")
    p.add_argument("graph")
    p.add_argument("--history", nargs="+", required=True)
    p.add_argument("--current", required=True)
    p.add_argument("--filter", help="filter JSON; omit to design one in-process")
    p.add_argument("--degree", type=int, default=6,
                   help="degree of the designed high-pass when --filter is absent")
    p.add_argument("--window", type=int, default=3)
    p.add_argument("--threshold-scale", type=float, default=1.0,
                   dest="threshold_scale")
    p.add_argument("--calibration", choices=("max", "median"), default="max")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("classify", parents=[out],
                       help="spread known labels by regularization")
    p.add_argument("graph")
    p.add_argument("labels")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--form", choices=("shift", "laplacian"), default="shift")
    p.add_argument("--sweep", help="'standard' or comma-separated alphas")
    p.add_argument("--truth", help="fully labeled ground truth (sweep mode)")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("rerun", help="replay a recorded manifest")
    p.add_argument("manifest")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_rerun)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else [str(a) for a in argv]
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 1
        return 0 if code == 0 else 1
    args.config = {k: v for k, v in vars(args).items() if k != "func"}
    args.argv, args.outputs, args.digests = argv, [], {}  # sha256 by path, as read
    args.graph_cache = args.basis = None
    args.cache = basis_cache.default_directory()
    handler, level = logging.StreamHandler(sys.stderr), log.level
    if args.verbose:
        log.addHandler(handler)
        log.setLevel(logging.DEBUG)
    try:
        return args.func(args)
    except (NearDefectiveError, SingularSystemError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
