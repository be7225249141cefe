"""Readers and writers for the on-disk formats.

Plain text throughout: tab-separated edge lists, CSV signals and point
clouds, JSON for spectra, filters, and reports.  Floats are written with 17
significant digits so every file round-trips bitwise.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

import numpy as np

from . import basis_cache
from .filtering import FilterDesign, GraphFilter
from .graph import Graph, LabelSignal, _nonzeros
from .spectral import FrequencyOrdering, Spectrum


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _fmt_weight(w) -> str:
    w = complex(w)
    if w.imag == 0.0:
        return _fmt(w.real)
    return f"{_fmt(w.real)}{'+' if w.imag >= 0 else '-'}{_fmt(abs(w.imag))}i"


def _parse_weight(text: str):
    """A weight field: a real, a complex ``a+bi``, or 1 where it is empty."""
    text = text.strip()
    if not text:
        return 1.0
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
    dsts, srcs, weights = _nonzeros(g)
    order = np.lexsort((dsts, srcs))
    isolated = np.ones(g.n, dtype=bool)
    isolated[srcs] = isolated[dsts] = False
    edges = zip(srcs[order].tolist(), dsts[order].tolist(), weights[order].tolist())
    fmt = _fmt_weight if np.iscomplexobj(weights) else _fmt
    lines = ["src\tdst\tweight"] + [f"{s}\t{d}\t{fmt(w)}" for s, d, w in edges]
    lines += [f"{i}\t{i}\t0" for i in np.flatnonzero(isolated)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


_ID_LIMIT = math.isqrt(2 ** 63 - 1)  # below it, the keys dst*n + src fit in int64


def _id_error(path, rows):
    """The refusal of the first row whose node ids are not integers in
    [0, ``_ID_LIMIT``)."""
    for ln in rows:
        try:
            s, d = map(int, ln.split("\t")[:2])
        except ValueError:
            return ValueError(f"{path}: non-integer node id in row {ln!r}")
        if s < 0 or d < 0:
            return ValueError(f"{path}: node ids must be non-negative, got {ln!r}")
        if max(s, d) >= _ID_LIMIT:
            return ValueError(f"{path}: node id {max(s, d)} too large; node ids must "
                              f"be below {_ID_LIMIT}")


def _weight_error(path, rows, weights):
    """The refusal of the first row whose weight field does not parse."""
    for ln, w in zip(rows, weights):
        try:
            _parse_weight(w)
        except ValueError as e:
            return ValueError(f"{path}: {e} in row {ln!r}")


def _parse_rows(path, text):
    """src, dst and weights of an edge list, each column read in one pass.
    A row is two or three tab-separated fields; a missing or empty weight is
    1.  A refusal names the first malformed row, else the first row with a
    bad node id, as the file has it."""
    lines = list(filter(str.strip, text.split("\n")))
    if not lines:
        raise ValueError(f"{path}: empty edge-list file")
    header = lines[0].strip().split("\t")
    if header[:2] != ["src", "dst"] or len(header) > 3 or (
            len(header) == 3 and header[2] != "weight"):
        raise ValueError(f"{path}: expected header 'src<TAB>dst[<TAB>weight]'")
    rows = lines[1:]
    if not rows:
        raise ValueError(f"{path}: edge list has no edges")
    tabs = {ln.count("\t") for ln in rows}
    if not tabs <= {1, 2}:
        bad = next(ln for ln in rows if ln.count("\t") not in (1, 2))
        raise ValueError(f"{path}: malformed edge row {bad!r}")
    # a two-field row gets an empty weight field, which reads as 1
    full = [ln + "\t" * (2 - ln.count("\t")) for ln in rows] if 1 in tabs else rows
    fields = "\t".join(full).split("\t")
    weights = fields[2::3]
    del fields[2::3]  # the ids, src and dst by turns
    try:
        ids = np.fromiter(map(int, fields), np.int64).reshape(-1, 2).T
        if ids.min() < 0 or ids.max() >= _ID_LIMIT:
            raise ValueError
    except (ValueError, OverflowError):
        raise _id_error(path, rows) from None
    try:
        weights = np.fromiter(map(float, weights), float)
    except ValueError:
        try:
            weights = np.array(list(map(_parse_weight, weights)))
        except ValueError:
            raise _weight_error(path, rows, weights) from None
    return ids[0], ids[1], weights


def read_edge_list(path, *, directed=None, cache=None) -> Graph:
    """The graph of an edge list, with no N x N array: the sort of the keys
    dst*n + src that finds a repeated edge gives the row-major order.  A zero
    weight is no edge, but counts its nodes.

    With ``cache=DIR`` the graph is read from the ``basis_cache`` entry in
    that directory of the bytes' sha256, kept hex as ``_sha256``, where one
    checks, without checking it again; otherwise it is parsed and stored,
    unless refused.  Without it nothing is read or written."""
    with open(path, "rb") as fh:
        data = fh.read()
    digest = hashlib.sha256(data)
    text = io.TextIOWrapper(io.BytesIO(data))  # decodes as open(path) would
    g = basis_cache.through(
        cache, f"edge_list={path}", ["edge-list", directed, text.encoding],
        [np.frombuffer(digest.digest(), np.uint8)], 4, _entry_fits,
        lambda: _parse(path, text.read(), directed),
        lambda g: [np.array([g.n, g.directed], dtype=np.int64), *_nonzeros(g)], _unpack)
    g.__dict__["_sha256"] = digest.hexdigest()
    return g


def _entry_fits(head, rows, cols, vals):
    """Whether stored arrays are a graph's ``[n, directed]``, rows, cols and
    vals: the header int64, n positive and directed 0 or 1, the rows and
    columns int64 of one length and within [0, n), the values float64 or
    complex128."""
    return (head.dtype == np.int64 and head.shape == (2,) and head[0] >= 1
            and head[1] in (0, 1) and rows.dtype == cols.dtype == np.int64
            and rows.ndim == 1 and rows.shape == cols.shape == vals.shape
            and vals.dtype in (float, complex)
            and min(rows.min(initial=0), cols.min(initial=0)) >= 0
            and max(rows.max(initial=0), cols.max(initial=0)) < head[0])


def _unpack(head, rows, cols, vals):
    """The graph of an entry, checked before it was stored."""
    return Graph.__new__(Graph)._assign(head[0], rows, cols, vals, head[1])


def _parse(path, text, directed):
    """The checked graph of an edge list's ``text``."""
    src, dst, weights = _parse_rows(path, text)
    n = int(max(src.max(), dst.max())) + 1
    first = np.unique(dst * n + src, return_index=True)[1]
    if first.size < src.size:
        dup = np.ones(src.size, dtype=bool)
        dup[first] = False
        r = int(np.argmax(dup))  # the first row that repeats an earlier pair
        raise ValueError(f"{path}: duplicate edge {src[r]} -> {dst[r]}")
    return Graph._from_entries(n, dst[first], src[first], weights[first], directed)


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


def _write_table(path, header, *columns):
    """CSV table: the header row, then one row per entry of the columns, an
    integer column as integers and any other with 17 significant digits."""
    cells = [c.tolist() if c.dtype.kind in "iu" else [_fmt(x) for x in c.tolist()]
             for c in map(np.asarray, columns)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cells))


def write_signal(path, values):
    values = np.asarray(values)
    nodes = np.arange(values.size)
    if np.any(values.imag != 0.0):
        _write_table(path, ["node", "re", "im"], nodes, values.real, values.imag)
    else:
        _write_table(path, ["node", "re"], nodes, values.real)


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
            if node < 0:
                raise ValueError(f"{path}: node ids must be non-negative, got {row!r}")
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
    """The [re, im] rows of a complex vector, as a real N x 2 array."""
    z = np.asarray(z, dtype=complex)
    return np.stack([z.real, z.imag], axis=-1)


def _json_array(x, depth):
    """``json.dumps(x.tolist(), indent=2)`` of a real or integer array that
    sits ``depth`` levels deep, byte for byte: its numbers are formatted by
    one call of the C encoder, and the ``indent=2`` padding put between them
    by ``str.join``.  Between numbers i and i+1 the padding closes and opens
    one bracket for each trailing axis that ends at i."""
    if not x.size:  # nothing to format; the Python encoder is quick on it
        return json.dumps(x.tolist(), indent=2).replace("\n", "\n" + "  " * depth)
    numbers = json.dumps(x.ravel().tolist())[1:-1].split(", ")
    m = x.ndim

    def pad(level):
        return "\n" + "  " * level

    def close(k):  # the k innermost brackets
        return "".join(pad(depth + m - 1 - j) + "]" for j in range(k))

    def open_(k):  # k brackets, the outermost at depth + m - k
        return "".join("[" + pad(depth + m - k + 1 + j) for j in range(k))

    ends = np.zeros(x.size - 1, dtype=np.intp)
    for extent in np.cumprod(x.shape[:0:-1]):  # the trailing axes' sizes
        ends += np.arange(1, x.size) % extent == 0
    between = [close(k) + "," + pad(depth + m - k) + open_(k) for k in range(m)]
    seps = [between[k] for k in ends.tolist()]
    seps.append(close(m))
    return open_(m) + "".join(map(str.__add__, numbers, seps))


def _write_json(path, doc):
    """``json.dump(doc, indent=2)`` and a newline, byte for byte, for a dict
    with string keys.  A value that is a real or integer numpy array is
    written as its ``tolist()`` by ``_json_array``; every other value,
    strings among them, by ``json.dumps``."""
    items = [json.dumps(key) + ": " + (
                 _json_array(value, 1)
                 if isinstance(value, np.ndarray) and value.dtype.kind in "iuf"
                 else json.dumps(value, indent=2).replace("\n", "\n  "))
             for key, value in doc.items()]
    with open(path, "w") as fh:
        fh.write("{\n  " + ",\n  ".join(items) + "\n}\n" if items else "{}\n")


def write_spectrum(path, b: Spectrum, ordering: FrequencyOrdering):
    _write_json(path, {
        "eigenvalues": _pairs(b.eigenvalues),
        "variations": ordering.variations,
        "order": ordering.order,
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
    _write_table(path, ["alpha", "ratio", "mean_accuracy", "std"], sweep.alphas,
                 np.full(len(sweep.alphas), float(sweep.ratio)),
                 sweep.mean_accuracy, sweep.std_accuracy)


def write_predictions(path, classification):
    _write_table(path, ["node", "predicted", "class"],
                 np.arange(len(classification.predicted)),
                 classification.predicted, classification.classes)


def write_spectra(path, before, after, response):
    """The signal's spectrum before and after filtering, and the filter's
    frequency response, one row per eigenvector."""
    parts = [part(z) for z in (before, after, response) for part in (np.real, np.imag)]
    _write_table(path, ["index", "before_re", "before_im", "after_re", "after_im",
                        "response_re", "response_im"], np.arange(len(before)), *parts)
