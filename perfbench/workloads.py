"""Seeded inputs, the CLI commands run on them, and the check of each output.

Every input is generated with numpy from the workload seed and written to
files by the benchmark itself; the program under test only ever sees those
files.  Each check compares a command's output with a reference computed
here with numpy, and raises ``CheckFailed`` when they disagree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.sparse
import scipy.sparse.linalg


class CheckFailed(Exception):
    """A command's output disagrees with the benchmark's reference."""


@dataclass
class Command:
    """One CLI invocation of a pipeline.

    ``argv`` maps the pipeline's output directory to the arguments after
    ``python -m graphdsp.cli``; ``check`` inspects the outputs in that
    directory and raises ``CheckFailed`` when they are wrong.
    """

    name: str
    argv: Callable[[Path], list]
    check: Callable[[Path], None]


@dataclass
class Workload:
    name: str
    commands: list
    inputs: list
    # public functions every pipeline of this workload is expected to call;
    # a name the traced run never sees is reported as missing
    expected_calls: frozenset


def _fmt(x) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------- writers


def write_points(path: Path, pts):
    path.write_text("".join(",".join(_fmt(v) for v in row) + "\n" for row in pts))


def write_signal(path: Path, values):
    path.write_text("node,re\n" + "".join(f"{i},{_fmt(v)}\n"
                                          for i, v in enumerate(values)))


def write_edge_list(path: Path, a):
    """TSV edge list of a dense adjacency, the edge src -> dst carrying
    a[dst, src]; isolated nodes get a zero self row so N survives."""
    dst, src = np.nonzero(a)
    rows = [f"{s}\t{d}\t{_fmt(a[d, s])}\n" for s, d in sorted(zip(src, dst))]
    touched = np.zeros(a.shape[0], dtype=bool)
    touched[src] = touched[dst] = True
    rows += [f"{i}\t{i}\t0\n" for i in np.flatnonzero(~touched)]
    path.write_text("src\tdst\tweight\n" + "".join(rows))


def input_record(name, graph_tsv: Path, a):
    """What the result records about one graph input.  ``graph_tsv`` is
    absolute for a file the benchmark writes, and relative to the pipeline's
    output directory for one the program writes."""
    return {"name": name, "n": int(a.shape[0]),
            "edges": int(np.count_nonzero(a)), "graph_tsv": graph_tsv,
            "dense_adjacency_bytes": int(a.shape[0] ** 2 * a.itemsize)}


# ---------------------------------------------------------------- readers


def _table(path: Path, delimiter, columns):
    """Numeric table with a header row, as a (rows, columns) array;
    ``columns`` is the allowed column count, or a tuple of them."""
    try:
        data = np.loadtxt(path, delimiter=delimiter, skiprows=1, ndmin=2)
    except (OSError, ValueError) as e:
        raise CheckFailed(f"{path.name}: unreadable ({e})") from None
    if data.shape[1] not in np.atleast_1d(columns):
        raise CheckFailed(f"{path.name}: expected {columns} columns, "
                          f"got {data.shape[1]}")
    return data


def read_edge_list(path: Path, n):
    data = _table(path, "\t", 3)
    src, dst = data[:, 0].astype(int), data[:, 1].astype(int)
    if src.min() < 0 or dst.min() < 0 or max(src.max(), dst.max()) >= n:
        raise CheckFailed(f"{path.name}: node id outside 0..{n - 1}")
    a = np.zeros((n, n))
    a[dst, src] = data[:, 2]
    return a


def read_rows(path: Path, columns, n):
    data = _table(path, ",", columns)
    if not np.array_equal(data[:, 0], np.arange(n)):
        raise CheckFailed(f"{path.name}: node column is not 0..{n - 1}")
    return data


def read_signal(path: Path, n):
    """A ``node,re`` or ``node,re,im`` signal file as a complex vector."""
    data = read_rows(path, (2, 3), n)
    return data[:, 1] + 1j * (data[:, 2] if data.shape[1] == 3 else 0.0)


def read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise CheckFailed(f"{path.name}: unreadable ({e})") from None


def _complex(pairs):
    arr = np.asarray(pairs, dtype=float)
    return arr[:, 0] + 1j * arr[:, 1]


def _close(name, got, want, rtol):
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        raise CheckFailed(f"{name}: shape {got.shape}, expected {want.shape}")
    scale = max(float(np.abs(want).max(initial=0.0)), np.finfo(float).tiny)
    err = float(np.abs(got - want).max(initial=0.0))
    if not err <= rtol * scale:
        raise CheckFailed(f"{name}: max deviation {err:.3e} exceeds "
                          f"{rtol:.0e} x {scale:.3e}")


# ------------------------------------------------------------- references


def knn_adjacency(pts, k, symmetrize=False):
    """Vectorized kNN graph with the program's rules: neighbors by
    (distance, lowest index), weight exp(-d^2)/sqrt(S_n S_m)."""
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=-1))
    ranked = dist.copy()
    np.fill_diagonal(ranked, np.inf)
    nearest = np.argsort(ranked, axis=1, kind="stable")[:, :k]
    mask = np.zeros(dist.shape, dtype=bool)
    mask[np.arange(len(pts))[:, None], nearest] = True
    if symmetrize:
        mask |= mask.T
    gauss = np.exp(-dist ** 2)
    sums = np.where(mask, gauss, 0.0).sum(axis=1)
    return np.where(mask, gauss / np.sqrt(np.outer(sums, sums)), 0.0)


def horner(a, rho, taps, s):
    """h(A/rho) s evaluated by Horner's rule."""
    shift = a / rho
    out = taps[-1] * s
    for h in taps[-2::-1]:
        out = shift @ out + h * s
    return out


def smooth_field(rng, pts, waves=3):
    """A few low spatial-frequency plane waves over the unit square."""
    out = np.zeros(len(pts))
    for _ in range(waves):
        omega = rng.uniform(-1.5, 1.5, size=2)
        out += rng.uniform(0.5, 1.0) * np.sin(2 * np.pi * (pts @ omega)
                                              + rng.uniform(0, 2 * np.pi))
    return out


def sbm(rng, n, p, q):
    """Two-block SBM adjacency with shuffled +/-1 memberships."""
    member = rng.permutation(np.where(np.arange(n) < n // 2, 1.0, -1.0))
    prob = np.where(member[:, None] == member[None, :], p, q)
    upper = np.triu(rng.random((n, n)) < prob, k=1)
    return (upper | upper.T).astype(float), member


# ----------------------------------------------------------------- checks


def check_gen(ref_a):
    def check(out: Path):
        a = read_edge_list(out / "gen" / "graph.tsv", ref_a.shape[0])
        _close("gen adjacency", a, ref_a, 1e-12)
    return check


def check_spectrum(ref_eigs):
    rho = float(np.abs(ref_eigs).max())

    def check(out: Path):
        doc = read_json(out / "spectrum" / "spectrum.json")
        w = _complex(doc["eigenvalues"])
        if np.abs(w.imag).max() > 1e-9 * rho:
            raise CheckFailed("spectrum: undirected graph has complex eigenvalues")
        got = np.sort(w.real)
        if got.shape != ref_eigs.shape or not np.abs(got - ref_eigs).max() <= 1e-9 * rho:
            raise CheckFailed("spectrum: eigenvalues differ from eigvalsh")
        order = np.asarray(doc["order"])
        if not np.array_equal(np.sort(order), np.arange(len(w))):
            raise CheckFailed("spectrum: order is not a permutation")
        if np.any(np.diff(np.asarray(doc["variations"])[order]) < 0):
            raise CheckFailed("spectrum: variations decrease along the order")
    return check


def check_design(degree):
    def check(out: Path):
        doc = read_json(out / "design" / "design.json")
        taps = _complex(doc["taps"])
        if len(taps) != degree + 1:
            raise CheckFailed(f"design: {len(taps)} taps for degree {degree}")
        if not np.array_equal(_complex(read_json(out / "design" / "filter.json")
                                       ["taps"]), taps):
            raise CheckFailed("design: filter.json taps differ from design.json")
        vand = np.vander(_complex(doc["frequencies"]), degree + 1, increasing=True)
        achieved = _complex(doc["achieved"])
        err = np.abs(vand @ taps - achieved)
        if not np.all(err <= 1e-12 * (np.abs(vand) @ np.abs(taps))):
            raise CheckFailed("design: achieved is not the taps' Vandermonde image")
    return check


def check_filter(ref_a, rho, signal):
    def check(out: Path):
        taps = _complex(read_json(out / "design" / "filter.json")["taps"])
        got = read_signal(out / "filter" / "filtered.csv", len(signal))
        _close("filter output", got, horner(ref_a, rho, taps, signal), 1e-9)
    return check


def check_detection(subdir, replayed):
    def check(out: Path):
        doc = read_json(out / subdir / "detection.json")
        threshold = doc["threshold"]
        mags = [m for _, m in doc["offending_coefficients"]]
        if not (np.isfinite(threshold) and threshold > 0):
            raise CheckFailed(f"{subdir}: threshold {threshold} is not positive")
        if doc["flagged"] != bool(mags):
            raise CheckFailed(f"{subdir}: flagged disagrees with the offenders")
        if replayed and doc["flagged"]:
            raise CheckFailed(f"{subdir}: a replayed history snapshot was flagged")
        if any(b > a for a, b in zip(mags, mags[1:])):
            raise CheckFailed(f"{subdir}: offenders are not in descending order")
        if any(not m > threshold for m in mags):
            raise CheckFailed(f"{subdir}: an offender is not above the threshold")
    return check


def check_classify(subdir, a, form, alpha, labels, truth, min_accuracy=None):
    """(M + 2 alpha C) s = 2 alpha C y with M built here, and, when
    ``min_accuracy`` is given, classes that agree that often with the truth."""
    if form == "shift":
        rho = float(scipy.sparse.linalg.eigsh(scipy.sparse.csr_matrix(a), k=1,
                                              which="LA", tol=0.0)[0][0])

        def m_times(s):
            b = s - a @ s / rho
            return b - a.T @ b / rho
    else:
        deg = a.sum(axis=1)

        def m_times(s):
            return 2.0 * (deg * s - a @ s)
    known = (labels != 0).astype(float)

    def check(out: Path):
        data = read_rows(out / subdir / "predictions.csv", 3, len(labels))
        s, classes = data[:, 1], data[:, 2]
        if not np.array_equal(classes, np.where(s > 0, 1.0, -1.0)):
            raise CheckFailed(f"{subdir}: classes are not the signs of the predictions")
        rhs = 2.0 * alpha * known * labels
        resid = np.linalg.norm(m_times(s) + 2.0 * alpha * known * s - rhs)
        if not resid <= 1e-6 * np.linalg.norm(rhs):
            raise CheckFailed(f"{subdir}: relative residual "
                              f"{resid / np.linalg.norm(rhs):.3e} exceeds 1e-6")
        accuracy = float(np.mean(classes == truth))
        if min_accuracy is not None and not accuracy >= min_accuracy:
            raise CheckFailed(f"{subdir}: accuracy {accuracy:.3f} below {min_accuracy}")
    return check


def check_sweep(out: Path):
    data = _table(out / "sweep" / "accuracy.csv", ",", 4)
    acc = data[:, 2]
    if data.shape[0] != 199:
        raise CheckFailed(f"sweep: {data.shape[0]} rows, expected 199")
    if not np.all((acc >= 0) & (acc <= 1)):
        raise CheckFailed("sweep: an accuracy lies outside [0, 1]")
    if not acc.max() >= 0.9:
        raise CheckFailed(f"sweep: best accuracy {acc.max():.3f} below 0.9")


# -------------------------------------------------------------- workloads


def sensor_detect(seed, inp: Path, n=1000, k=8, degree=6):
    """The paper's sensor experiment on a directed kNN graph."""
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    field_ = smooth_field(rng, pts)
    history = [field_ * (1.0 + 0.05 * t) + 0.01 * rng.standard_normal(n)
               for t in range(3)]
    spiked = field_ * 1.15 + 0.01 * rng.standard_normal(n)
    spiked[rng.integers(n)] += 3.0
    write_points(inp / "pts.csv", pts)
    hist = [inp / f"h{t}.csv" for t in range(3)]
    for path, values in zip(hist, history):
        write_signal(path, values)
    write_signal(inp / "spiked.csv", spiked)

    ref_a = knn_adjacency(pts, k)
    rho = float(np.abs(np.linalg.eigvals(ref_a)).max())
    graph = lambda o: str(o / "gen" / "graph.tsv")  # noqa: E731
    hist_args = ["--history", *map(str, hist)]
    commands = [
        Command("gen", lambda o: ["gen", "knn", str(inp / "pts.csv"), str(k),
                                  "--out", str(o / "gen")], check_gen(ref_a)),
        Command("design", lambda o: ["design", graph(o), "--kind", "highpass",
                                     "--degree", str(degree),
                                     "--out", str(o / "design")],
                check_design(degree)),
        Command("filter", lambda o: ["filter", graph(o), str(o / "design" / "filter.json"),
                                     str(inp / "spiked.csv"), "--out", str(o / "filter")],
                check_filter(ref_a, rho, spiked)),
        Command("detect", lambda o: ["detect", graph(o), *hist_args,
                                     "--current", str(inp / "spiked.csv"),
                                     "--filter", str(o / "design" / "filter.json"),
                                     "--out", str(o / "detect")],
                check_detection("detect", replayed=False)),
        Command("detect_design", lambda o: ["detect", graph(o), *hist_args,
                                            "--current", str(hist[-1]),
                                            "--degree", str(degree),
                                            "--out", str(o / "detect_design")],
                check_detection("detect_design", replayed=True)),
    ]
    expected = {"build_knn_graph", "read_points", "write_edge_list", "read_edge_list",
                "spectral_radius", "decompose", "order_frequencies", "gft",
                "ideal_response", "design_filter", "write_filter", "read_filter",
                "read_signal", "write_signal", "apply_filter", "detect_malfunction",
                "write_detection_report", "write_design_report"}
    return Workload("sensor_detect", commands, [input_record("knn", Path("gen/graph.tsv"), ref_a)],
                    frozenset(expected))


def sym_spectrum(seed, inp: Path, n=1500, k=8, degree=8):
    """Symmetrized kNN: the undirected eigh path at a larger N."""
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    signal = smooth_field(rng, pts) + 0.1 * rng.standard_normal(n)
    write_points(inp / "pts.csv", pts)
    write_signal(inp / "signal.csv", signal)

    ref_a = knn_adjacency(pts, k, symmetrize=True)
    eigs = np.linalg.eigvalsh(ref_a)
    rho = float(np.abs(eigs).max())
    graph = lambda o: str(o / "gen" / "graph.tsv")  # noqa: E731
    commands = [
        Command("gen", lambda o: ["gen", "knn", str(inp / "pts.csv"), str(k),
                                  "--symmetrize", "--out", str(o / "gen")],
                check_gen(ref_a)),
        Command("spectrum", lambda o: ["spectrum", graph(o), "--out", str(o / "spectrum")],
                check_spectrum(eigs)),
        Command("design", lambda o: ["design", graph(o), "--kind", "lowpass",
                                     "--degree", str(degree), "--out", str(o / "design")],
                check_design(degree)),
        Command("filter", lambda o: ["filter", graph(o), str(o / "design" / "filter.json"),
                                     str(inp / "signal.csv"), "--out", str(o / "filter")],
                check_filter(ref_a, rho, signal)),
    ]
    expected = {"build_knn_graph", "read_points", "write_edge_list", "read_edge_list",
                "spectral_radius", "decompose", "order_frequencies", "gft",
                "ideal_response", "design_filter", "write_filter", "read_filter",
                "read_signal", "write_signal", "apply_filter", "write_spectrum",
                "write_design_report"}
    return Workload("sym_spectrum", commands, [input_record("knn", Path("gen/graph.tsv"), ref_a)],
                    frozenset(expected))


def label_sweep(seed, inp: Path, n_sweep=1000, n_large=2400, p=0.05, q=0.005,
                reveal=0.1):
    """The paper's classification experiment; no decompose and no kNN."""
    rng = np.random.default_rng(seed)
    records = []
    files = {}
    for tag, n, scale in (("sweep", n_sweep, 1.0), ("large", n_large, n_sweep / n_large)):
        a, truth = sbm(rng, n, p * scale, q * scale)
        labels = np.zeros(n)
        shown = rng.choice(n, size=int(round(reveal * n)), replace=False)
        labels[shown] = truth[shown]
        files[tag] = (inp / f"{tag}.tsv", inp / f"{tag}_labels.csv",
                      inp / f"{tag}_truth.csv", a, labels, truth)
        write_edge_list(files[tag][0], a)
        write_signal(files[tag][1], labels)
        write_signal(files[tag][2], truth)
        records.append(input_record(tag, files[tag][0], a))

    sg, sl, st = (str(x) for x in files["sweep"][:3])
    lg, ll = str(files["large"][0]), str(files["large"][1])
    a, labels, truth = files["large"][3:]
    commands = [
        Command("sweep", lambda o: ["classify", sg, sl, "--sweep", "standard",
                                    "--runs", "1", "--truth", st,
                                    "--out", str(o / "sweep")], check_sweep),
        Command("classify", lambda o: ["classify", lg, ll, "--alpha", "1",
                                       "--form", "shift", "--out", str(o / "classify")],
                check_classify("classify", a, "shift", 1.0, labels, truth, 0.9)),
        Command("classify_laplacian",
                lambda o: ["classify", lg, ll, "--alpha", "1", "--form", "laplacian",
                           "--out", str(o / "classify_laplacian")],
                # At alpha=1 the unnormalized Laplacian's cross-block energy
                # outweighs the fidelity term on these graphs, so the solution
                # sits near the mean revealed label and its signs are not a
                # classifier; only the solve itself is checked.
                check_classify("classify_laplacian", a, "laplacian", 1.0, labels, truth)),
    ]
    expected = {"read_edge_list", "read_signal", "spectral_radius", "classify",
                "sweep_alpha", "write_accuracy_table", "write_predictions"}
    return Workload("label_sweep", commands, records, frozenset(expected))


WORKLOADS = {"sensor_detect": sensor_detect, "sym_spectrum": sym_spectrum,
             "label_sweep": label_sweep}
