"""Command-line driver for the whole pipeline.

One binary with subcommands: synthetic graph generation, spectrum
inspection, filter design, signal filtering, anomaly detection, and label
classification.  ``spectrum`` writes ``spectrum.json``: the eigenvalues,
their variations and frequency order, and ``basis_condition``, cond2 of the
eigenvector matrix with unit 2-norm columns.  That condition is exactly 1 on
an undirected graph, so there ``spectrum`` and ``design`` compute
eigenvalues alone; on a directed graph they build the eigenbasis, which may
be refused.  ``filter`` applies h(A/rho) by repeated shifts, which needs
the spectral radius alone; it builds the eigenbasis only for
``--spectra``, which also writes the signal's spectrum before and after.
Every run writes a ``manifest.json`` next to its outputs recording the
command, input digests, seed, configuration, and the Python, numpy and
BLAS thread settings; ``rerun`` refuses a manifest whose inputs no longer
match their digests, and otherwise replays its argv, which reproduces the
outputs bit for bit under the graphdsp version that wrote it.  A
``filter`` manifest written before ``--spectra`` existed replays without
``spectra.csv`` and with the cold spectral radius, so its ``filtered.csv``
moves at rounding level; the recorded command run with ``--spectra``
reproduces both files.  ``graphdsp --verbose <command>`` prints the
library's debug records, such as the solver and condition path of each
``decompose`` and the path of each cold spectral radius, to stderr.

Exit codes: 0 success, 1 bad input or arguments, 2 numerical refusal: a
near-defective adjacency in a command that builds the eigenbasis
(``detect`` and ``filter --spectra``; ``spectrum`` and ``design`` on a
directed graph), or a singular regularization system.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys

import numpy as np

from . import fileio
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

METRICS = {"euclidean": euclidean, "haversine": haversine_km}
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _finish(args, inputs, config, outputs, seed=None):
    """Write the run manifest next to the outputs."""
    fileio._write_json(os.path.join(args.out, "manifest.json"), {
        "command": list(args.argv),
        "inputs": {p: _sha256(p) for p in inputs},
        "seed": seed,
        "config": config,
        "outputs": outputs,
        # the bits of eig, and so of every basis, depend on the BLAS threads
        "environment": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "threads": {v: os.environ.get(v) for v in THREAD_VARIABLES},
        },
    })
    return 0


def _outdir(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


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
    out = _outdir(args)
    graph_path = os.path.join(out, "graph.tsv")
    inputs = []
    outputs = ["graph.tsv"]
    seed = None
    if args.kind == "cycle":
        g = cycle_graph(args.n)
        config = {"kind": "cycle", "n": args.n}
    elif args.kind == "path":
        g = path_graph(args.n)
        config = {"kind": "path", "n": args.n}
    elif args.kind == "regular":
        seed = args.seed
        g = regular_graph(args.n, args.d, seed=seed)
        config = {"kind": "regular", "n": args.n, "d": args.d}
    elif args.kind == "knn":
        points = fileio.read_points(args.points)
        g = build_knn_graph(points, args.k, metric=METRICS[args.metric],
                            unweighted=args.unweighted,
                            symmetrize=args.symmetrize)
        inputs = [args.points]
        config = {"kind": "knn", "k": args.k, "metric": args.metric,
                  "unweighted": args.unweighted, "symmetrize": args.symmetrize}
    else:
        seed = args.seed
        g, truth = sbm_graph(args.n, args.p, args.q, seed=seed)
        fileio.write_signal(os.path.join(out, "labels.csv"), truth.labels)
        outputs.append("labels.csv")
        config = {"kind": "sbm", "n": args.n, "p": args.p, "q": args.q}
    fileio.write_edge_list(graph_path, g)
    return _finish(args, inputs, config, outputs, seed=seed)


def _cmd_spectrum(args):
    out = _outdir(args)
    g = fileio.read_edge_list(args.graph)
    sp = spectrum(g)
    fileio.write_spectrum(os.path.join(out, "spectrum.json"), sp, order_frequencies(sp))
    return _finish(args, [args.graph], {}, ["spectrum.json"])


def _cmd_design(args):
    out = _outdir(args)
    g = fileio.read_edge_list(args.graph)
    kind, band = _parse_kind(args.kind)
    design = design_ideal_filter(spectrum(g), kind, args.degree, band)
    fileio.write_filter(os.path.join(out, "filter.json"), design.filter)
    fileio.write_design_report(os.path.join(out, "design.json"), design)
    return _finish(args, [args.graph],
                   {"kind": args.kind, "degree": args.degree},
                   ["filter.json", "design.json"])


def _cmd_filter(args):
    out = _outdir(args)
    g = fileio.read_edge_list(args.graph)
    filt = fileio.read_filter(args.filter)
    s = g.signal(fileio.read_signal(args.signal))
    inputs, config = [args.graph, args.filter, args.signal], {"spectra": args.spectra}
    # h(A/rho) s needs rho alone, so only the spectra build a basis: first,
    # so a defective graph is refused before anything is written
    b = decompose(g) if args.spectra else None
    result = apply_filter(g, filt, s)
    fileio.write_signal(os.path.join(out, "filtered.csv"), result.values)
    if b is None:
        return _finish(args, inputs, config, ["filtered.csv"])
    before = gft(b, s)
    after = gft(b, result)
    response = frequency_response(b, filt)
    with open(os.path.join(out, "spectra.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "before_re", "before_im", "after_re",
                        "after_im", "response_re", "response_im"])
        for i in range(b.n):
            writer.writerow([i] + [format(float(x), ".17g") for x in
                                   (before[i].real, before[i].imag,
                                    after[i].real, after[i].imag,
                                    response[i].real, response[i].imag)])
    return _finish(args, inputs, config, ["filtered.csv", "spectra.csv"])


def _cmd_detect(args):
    out = _outdir(args)
    g = fileio.read_edge_list(args.graph)
    b = decompose(g)
    if args.filter:
        filt = fileio.read_filter(args.filter)
        filter_config = {"filter": args.filter}
    else:
        filt = design_ideal_filter(b, "highpass", args.degree).filter
        filter_config = {"degree": args.degree}
    cfg = DetectorConfig(filter=filt, window=args.window,
                         threshold_scale=args.threshold_scale,
                         calibration=args.calibration)
    history = [g.signal(fileio.read_signal(p)) for p in args.history]
    current = g.signal(fileio.read_signal(args.current))
    report = detect_malfunction(g, b, cfg, history, current)
    fileio.write_detection_report(os.path.join(out, "detection.json"), report)
    config = {"window": args.window, "threshold_scale": args.threshold_scale,
              "calibration": args.calibration, **filter_config}
    inputs = [args.graph, *args.history, args.current]
    if args.filter:
        inputs.append(args.filter)
    return _finish(args, inputs, config, ["detection.json"])


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
    out = _outdir(args)
    g = fileio.read_edge_list(args.graph)
    labels = fileio.read_labels(args.labels)
    if args.sweep:
        if not args.truth:
            raise ValueError("--sweep needs --truth with full ground-truth labels")
        truth = fileio.read_labels(args.truth)
        ratio = float(labels.known_mask.mean())
        grid = _parse_grid(args.sweep)
        sweep = sweep_alpha(g, truth, args.form, grid, ratio, args.runs,
                            seed=args.seed)
        fileio.write_accuracy_table(os.path.join(out, "accuracy.csv"), sweep)
        config = {"form": args.form, "sweep": args.sweep, "runs": args.runs,
                  "ratio": ratio, "best_alpha": sweep.best_alpha}
        return _finish(args, [args.graph, args.labels, args.truth], config,
                       ["accuracy.csv"], seed=args.seed)
    cfg = ClassifierConfig(alpha=args.alpha, form=args.form)
    result = classify(g, labels, cfg)
    fileio.write_predictions(os.path.join(out, "predictions.csv"), result)
    return _finish(args, [args.graph, args.labels],
                   {"alpha": args.alpha, "form": args.form}, ["predictions.csv"])


def _cmd_rerun(args):
    with open(args.manifest) as fh:
        doc = json.load(fh)
    command = doc.get("command") if isinstance(doc, dict) else None
    if not isinstance(command, list) or not command:
        raise ValueError(f"{args.manifest}: manifest has no recorded command")
    inputs = doc.get("inputs", {})
    if not isinstance(inputs, dict):
        raise ValueError(f"{args.manifest}: recorded inputs are not a mapping")
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
    return main(argv)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="graphdsp",
        description="Signal processing on graphs via the adjacency shift.",
    )
    parser.add_argument("--verbose", action="store_true",
                        help="print the library's debug records to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", default=".", help="output directory")

    gen = sub.add_parser("gen", help="generate a synthetic graph")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    for kind in ("cycle", "path"):
        p = gen_sub.add_parser(kind)
        p.add_argument("n", type=int)
        p.set_defaults(func=_cmd_gen)
        add_out(p)
    p = gen_sub.add_parser("regular")
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen)
    add_out(p)
    p = gen_sub.add_parser("knn")
    p.add_argument("points", help="CSV point cloud, one coordinate row per node")
    p.add_argument("k", type=int)
    p.add_argument("--metric", choices=sorted(METRICS), default="euclidean")
    p.add_argument("--symmetrize", action="store_true")
    p.add_argument("--unweighted", action="store_true")
    p.set_defaults(func=_cmd_gen)
    add_out(p)
    p = gen_sub.add_parser("sbm")
    p.add_argument("n", type=int)
    p.add_argument("p", type=float)
    p.add_argument("q", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen)
    add_out(p)

    p = sub.add_parser("spectrum", help="eigenvalues, variations, and ordering")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_spectrum)
    add_out(p)

    p = sub.add_parser("design", help="fit taps to an ideal response")
    p.add_argument("graph")
    p.add_argument("--kind", required=True,
                   help="lowpass | highpass | bandpass:<lo>:<hi>")
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=_cmd_design)
    add_out(p)

    p = sub.add_parser("filter", help="apply a filter file to a signal file")
    p.add_argument("graph")
    p.add_argument("filter")
    p.add_argument("signal")
    p.add_argument("--spectra", action="store_true",
                   help="also write spectra.csv, which needs the eigenbasis")
    p.set_defaults(func=_cmd_filter)
    add_out(p)

    p = sub.add_parser("detect", help="threshold high-pass spectra against history")
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
    add_out(p)

    p = sub.add_parser("classify", help="spread known labels by regularization")
    p.add_argument("graph")
    p.add_argument("labels")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--form", choices=("shift", "laplacian"), default="shift")
    p.add_argument("--sweep", help="'standard' or comma-separated alphas")
    p.add_argument("--truth", help="fully labeled ground truth (sweep mode)")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_classify)
    add_out(p)

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
    args.argv = argv
    log = logging.getLogger("graphdsp")
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
