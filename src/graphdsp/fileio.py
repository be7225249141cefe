"""Readers and writers for the on-disk formats.

Plain text throughout: tab-separated edge lists, CSV signals and point
clouds, JSON for spectra, filters, and reports.  Floats are written with 17
significant digits so every file round-trips bitwise.
"""

from __future__ import annotations

import csv
import json
import re

import numpy as np

from .filtering import FilterDesign, GraphFilter
from .graph import Graph, LabelSignal
from .spectral import FrequencyOrdering, Spectrum


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _fmt_weight(w) -> str:
    w = complex(w)
    if w.imag == 0.0:
        return _fmt(w.real)
    return f"{_fmt(w.real)}{'+' if w.imag >= 0 else '-'}{_fmt(abs(w.imag))}i"


def _parse_weight(text: str):
    text = text.strip()
    try:
        return float(text)
    except ValueError:
        pass
    try:
        return complex(text.replace("i", "j").replace(" ", ""))
    except ValueError:
        raise ValueError(f"cannot parse edge weight {text!r}") from None


def write_edge_list(path, g: Graph):
    """Write `src<TAB>dst<TAB>weight` rows; an edge src -> dst contributes
    A[dst][src].  Isolated nodes are pinned with a zero-weight self row so
    the node count survives the round trip."""
    at = g.adjacency.T
    srcs, dsts = np.nonzero(at)
    isolated = np.setdiff1d(np.arange(g.n), np.concatenate([srcs, dsts]))
    edges = zip(srcs.tolist(), dsts.tolist(), at[srcs, dsts].tolist())
    lines = ["src\tdst\tweight"] + [f"{s}\t{d}\t{_fmt_weight(w)}" for s, d, w in edges]
    lines += [f"{i}\t{i}\t0" for i in isolated]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


_REAL_ROWS = re.compile(r"(?:\S+\t\S+\t\S+(?:\n+|\Z))*")


def _real_rows(text):
    """The common file in one pass: a 'src<TAB>dst<TAB>weight' header, then
    three fields on every row, each read by ``int``/``float`` as the row
    parser reads it.  None for any other file, and for any file the row
    parser would refuse, so that it stays the one source of error messages."""
    head, _, body = text.partition("\n")
    if head != "src\tdst\tweight" or not _REAL_ROWS.fullmatch(body):
        return None
    fields = body.split()
    try:
        src = np.array(list(map(int, fields[0::3])), dtype=np.int64)
        dst = np.array(list(map(int, fields[1::3])), dtype=np.int64)
        weights = np.array(list(map(float, fields[2::3])))
    except (ValueError, OverflowError):
        return None
    if (src < 0).any() or (dst < 0).any():
        return None
    return src, dst, weights


def _parse_rows(path, text):
    """Row by row: two or three fields, complex weights, and every error."""
    lines = [ln.strip() for ln in text.split("\n") if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty edge-list file")
    header = lines[0].split("\t")
    if header[:2] != ["src", "dst"] or len(header) > 3 or (
            len(header) == 3 and header[2] != "weight"):
        raise ValueError(f"{path}: expected header 'src<TAB>dst[<TAB>weight]'")
    src, dst, weights = [], [], []
    for ln in lines[1:]:
        parts = ln.split("\t")
        if len(parts) not in (2, 3):
            raise ValueError(f"{path}: malformed edge row {ln!r}")
        try:
            s, d = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"{path}: non-integer node id in row {ln!r}") from None
        if s < 0 or d < 0:
            raise ValueError(f"{path}: node ids must be non-negative, got {ln!r}")
        src.append(s)
        dst.append(d)
        weights.append(_parse_weight(parts[2]) if len(parts) == 3 else 1.0)
    weights = np.array(weights, dtype=complex if complex in map(type, weights) else float)
    return np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64), weights


def read_edge_list(path, *, directed=None) -> Graph:
    with open(path) as fh:
        text = fh.read()
    rows = _real_rows(text)
    src, dst, weights = rows if rows is not None else _parse_rows(path, text)
    n = int(max(src.max(initial=-1), dst.max(initial=-1))) + 1
    a = np.zeros((n, n), dtype=weights.dtype)
    first = np.unique(dst * n + src, return_index=True)[1]
    if first.size < src.size:
        dup = np.ones(src.size, dtype=bool)
        dup[first] = False
        r = int(np.argmax(dup))  # the first row that repeats an earlier pair
        raise ValueError(f"{path}: duplicate edge {src[r]} -> {dst[r]}")
    a[dst, src] = weights
    return Graph(a, directed=directed)


def write_points(path, points):
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be a 2-d array of coordinates")
    with open(path, "w") as fh:
        for row in points:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def read_points(path) -> np.ndarray:
    rows = []
    with open(path) as fh:
        for ln in fh:
            ln = ln.strip()
            if not ln:
                continue
            try:
                rows.append([float(x) for x in ln.split(",")])
            except ValueError:
                raise ValueError(f"{path}: non-numeric coordinate row {ln!r}") from None
    if not rows:
        raise ValueError(f"{path}: empty point file")
    if len({len(r) for r in rows}) != 1:
        raise ValueError(f"{path}: rows have inconsistent dimension")
    return np.array(rows)


def write_signal(path, values):
    values = np.asarray(values)
    complex_valued = np.iscomplexobj(values) and np.any(values.imag != 0.0)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if complex_valued:
            writer.writerow(["node", "re", "im"])
            for i, v in enumerate(values):
                writer.writerow([i, _fmt(v.real), _fmt(v.imag)])
        else:
            writer.writerow(["node", "re"])
            for i, v in enumerate(values):
                writer.writerow([i, _fmt(np.real(v))])


def read_signal(path) -> np.ndarray:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty signal file") from None
        header = [h.strip() for h in header]
        if header not in (["node", "re"], ["node", "re", "im"]):
            raise ValueError(f"{path}: expected header 'node,re[,im]'")
        has_im = len(header) == 3
        entries = {}
        for row in reader:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}: malformed signal row {row!r}")
            try:
                node = int(row[0])
                re = float(row[1])
                im = float(row[2]) if has_im else 0.0
            except ValueError:
                raise ValueError(f"{path}: non-numeric signal row {row!r}") from None
            if node in entries:
                raise ValueError(f"{path}: duplicate node {node}")
            entries[node] = re + 1j * im if has_im else re
    if not entries:
        raise ValueError(f"{path}: signal file has no rows")
    n = max(entries) + 1
    if sorted(entries) != list(range(n)):
        missing = sorted(set(range(n)) - set(entries))[:5]
        raise ValueError(f"{path}: missing rows for nodes {missing}")
    return np.array([entries[i] for i in range(n)])


def read_labels(path) -> LabelSignal:
    values = read_signal(path)
    if np.iscomplexobj(values):
        raise ValueError(f"{path}: labels must be real")
    return LabelSignal(values)


def _pairs(z):
    z = np.asarray(z, dtype=complex)
    return [[float(v.real), float(v.imag)] for v in z]


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def write_spectrum(path, b: Spectrum, ordering: FrequencyOrdering):
    _write_json(path, {
        "eigenvalues": _pairs(b.eigenvalues),
        "variations": [float(v) for v in ordering.variations],
        "order": [int(i) for i in ordering.order],
        "basis_condition": b.basis_condition,
    })


def write_filter(path, f: GraphFilter):
    _write_json(path, {"taps": _pairs(f.taps)})


def read_filter(path) -> GraphFilter:
    with open(path) as fh:
        doc = json.load(fh)
    try:
        taps = np.array([complex(re, im) for re, im in doc["taps"]])
        return GraphFilter(taps.real if np.all(taps.imag == 0.0) else taps)
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"{path}: filter file needs 'taps', a non-empty list "
                         f"of finite numeric [re, im] pairs") from None


def write_design_report(path, design: FilterDesign):
    _write_json(path, {
        "taps": _pairs(design.filter.taps),
        "residual": design.residual,
        "frequencies": _pairs(design.target.frequencies),
        "desired": _pairs(design.target.desired),
        "achieved": _pairs(design.achieved),
    })


def write_detection_report(path, report):
    _write_json(path, {
        "flagged": bool(report.flagged),
        "threshold": report.threshold,
        "offending_coefficients": [[int(i), float(m)]
                                   for i, m in report.offending_coefficients],
    })


def write_accuracy_table(path, sweep):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha", "ratio", "mean_accuracy", "std"])
        for alpha, mean, std in zip(sweep.alphas, sweep.mean_accuracy,
                                    sweep.std_accuracy):
            writer.writerow([_fmt(alpha), _fmt(sweep.ratio), _fmt(mean), _fmt(std)])


def write_predictions(path, classification):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "predicted", "class"])
        for i, (value, cls) in enumerate(zip(classification.predicted,
                                             classification.classes)):
            writer.writerow([i, _fmt(value), int(cls)])
