import json

import numpy as np
import pytest

from graphdsp import (
    Graph,
    GraphFilter,
    build_knn_graph,
    cycle_graph,
    decompose,
    design_filter,
    ideal_response,
    order_frequencies,
)
from graphdsp.fileio import (
    _fmt_weight,
    _parse_weight,
    read_edge_list,
    read_filter,
    read_labels,
    read_points,
    read_signal,
    write_edge_list,
    write_filter,
    write_points,
    write_signal,
    write_spectrum,
)


# ---------------------------------------------------------------------------
# edge lists


def test_edge_list_round_trip_directed(tmp_path):
    g = cycle_graph(5)
    p = tmp_path / "g.tsv"
    write_edge_list(p, g)
    back = read_edge_list(p)
    assert back.directed == g.directed
    assert np.array_equal(back.adjacency, g.adjacency)


def test_edge_list_round_trip_weighted(tmp_path):
    rng = np.random.default_rng(0)
    g = build_knn_graph(rng.random((15, 2)), 3)
    p = tmp_path / "knn.tsv"
    write_edge_list(p, g)
    back = read_edge_list(p)
    assert np.array_equal(back.adjacency, g.adjacency)  # 17 digits: exact


def test_edge_list_round_trip_complex(tmp_path):
    a = np.array([[0, 1 - 2j], [0.5j, 0]])
    g = Graph(a)
    p = tmp_path / "cpx.tsv"
    write_edge_list(p, g)
    back = read_edge_list(p)
    assert np.array_equal(back.adjacency, a)
    text = p.read_text()
    assert "i" in text and "j" not in text


def test_edge_list_preserves_isolated_nodes(tmp_path):
    a = np.zeros((4, 4))
    a[1, 0] = 1.0  # node 2 and 3 are isolated
    g = Graph(a)
    p = tmp_path / "iso.tsv"
    write_edge_list(p, g)
    back = read_edge_list(p)
    assert back.n == 4
    assert np.array_equal(back.adjacency, a)


def edge_list_reference(g):
    """Per-entry writer: visit every (src, dst) pair in src-major order."""
    a = g.adjacency
    touched = np.zeros(g.n, dtype=bool)
    lines = ["src\tdst\tweight"]
    for src in range(g.n):
        for dst in range(g.n):
            w = a[dst, src]
            if w != 0:
                touched[src] = touched[dst] = True
                lines.append(f"{src}\t{dst}\t{_fmt_weight(w)}")
    for i in np.flatnonzero(~touched):
        lines.append(f"{i}\t{i}\t0")
    return ("\n".join(lines) + "\n").encode()


def test_edge_list_bytes_match_per_entry_writer(tmp_path):
    rng = np.random.default_rng(7)
    real = rng.standard_normal((12, 12)) * (rng.random((12, 12)) < 0.3)
    real[:, 4] = real[4, :] = 0.0  # isolated node
    cpx = real * np.exp(1j * rng.random((12, 12)))
    cpx[2, 3], cpx[3, 2] = -1.5, 2j  # real and imaginary entries in a complex graph
    graphs = [Graph(real), Graph(cpx), Graph(np.zeros((3, 3))),
              build_knn_graph(rng.random((20, 2)), 3, symmetrize=True)]
    for i, g in enumerate(graphs):
        p = tmp_path / f"g{i}.tsv"
        write_edge_list(p, g)
        assert p.read_bytes() == edge_list_reference(g)


def test_edge_list_default_weight_is_one(tmp_path):
    p = tmp_path / "bare.tsv"
    p.write_text("src\tdst\tweight\n0\t1\t\n")
    g = read_edge_list(p)
    assert g.adjacency[1, 0] == 1.0


def test_edge_list_rejects_bad_input(tmp_path):
    cases = {
        "noheader.tsv": "0\t1\t1.0\n",
        "dup.tsv": "src\tdst\tweight\n0\t1\t1.0\n0\t1\t2.0\n",
        "negative.tsv": "src\tdst\tweight\n-1\t0\t1.0\n",
        "garbage.tsv": "src\tdst\tweight\n0\tx\t1.0\n",
        "badweight.tsv": "src\tdst\tweight\n0\t1\tfoo\n",
        "empty.tsv": "src\tdst\tweight\n",
    }
    for name, text in cases.items():
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(ValueError):
            read_edge_list(p)


def read_edge_list_reference(path):
    """Per-row fill with a set of seen pairs, which read_edge_list replaces."""
    lines = [ln.strip() for ln in path.read_text().splitlines() if ln.strip()]
    rows = [ln.split("\t") for ln in lines[1:]]
    rows = [(int(r[0]), int(r[1]), _parse_weight(r[2]) if len(r) == 3 else 1.0)
            for r in rows]
    n = max(max(s, d) for s, d, _ in rows) + 1
    a = np.zeros((n, n), dtype=complex if any(isinstance(w, complex) for *_, w in rows)
                 else float)
    seen = set()
    for s, d, w in rows:
        if (s, d) in seen:
            raise ValueError(f"{path}: duplicate edge {s} -> {d}")
        seen.add((s, d))
        a[d, s] = w
    return a


def test_read_edge_list_matches_per_row_fill(tmp_path):
    rng = np.random.default_rng(11)
    texts = ["src\tdst\tweight\n2\t0\t1.5\n0\t2\t-0.0\n1\t1\t\n",
             "src\tdst\n3\t1\n1\t3\n",
             "src\tdst\tweight\n0\t1\t2\n1\t0\t1-2i\n4\t4\t0\n"]
    for i in range(3):
        a = rng.standard_normal((9, 9)) * (rng.random((9, 9)) < 0.4)
        a = a * np.exp(1j * rng.random((9, 9))) if i == 1 else a
        p = tmp_path / f"w{i}.tsv"
        write_edge_list(p, Graph(a))
        texts.append(p.read_text())
    for i, text in enumerate(texts):
        p = tmp_path / f"e{i}.tsv"
        p.write_text(text)
        ref = read_edge_list_reference(p)
        got = read_edge_list(p).adjacency
        if np.iscomplexobj(ref) and not ref.imag.any():
            ref = ref.real
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_duplicate_edge_message_names_the_first_repeat(tmp_path):
    p = tmp_path / "dups.tsv"
    p.write_text("src\tdst\tweight\n0\t1\t1\n2\t3\t1\n1\t0\t1\n"
                 "2\t3\t5\n0\t1\t1\n")
    with pytest.raises(ValueError) as got:
        read_edge_list(p)
    with pytest.raises(ValueError) as ref:
        read_edge_list_reference(p)
    assert str(got.value) == str(ref.value) == f"{p}: duplicate edge 2 -> 3"


def test_edge_list_undirected_request(tmp_path):
    p = tmp_path / "sym.tsv"
    p.write_text("src\tdst\tweight\n0\t1\t1.0\n1\t0\t1.0\n")
    g = read_edge_list(p)
    assert not g.directed
    q = tmp_path / "asym.tsv"
    q.write_text("src\tdst\tweight\n0\t1\t1.0\n")
    with pytest.raises(ValueError):
        read_edge_list(q, directed=False)


# ---------------------------------------------------------------------------
# points and signals


def test_points_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    pts = rng.random((10, 3))
    p = tmp_path / "pts.csv"
    write_points(p, pts)
    assert np.array_equal(read_points(p), pts)


def test_points_reject_ragged_rows(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ValueError):
        read_points(p)


def test_signal_round_trip_real(tmp_path):
    vals = np.array([1.5, -2.0, 1e-17])
    p = tmp_path / "s.csv"
    write_signal(p, vals)
    back = read_signal(p)
    assert np.array_equal(back, vals)
    assert not np.iscomplexobj(back)
    assert p.read_text().splitlines()[0] == "node,re"


def test_signal_round_trip_complex(tmp_path):
    vals = np.array([1 + 2j, -0.5j, 3.0])
    p = tmp_path / "c.csv"
    write_signal(p, vals)
    back = read_signal(p)
    assert np.array_equal(back, vals)
    assert p.read_text().splitlines()[0] == "node,re,im"


def test_signal_rejects_gaps_and_duplicates(tmp_path):
    p = tmp_path / "gap.csv"
    p.write_text("node,re\n0,1.0\n2,2.0\n")
    with pytest.raises(ValueError):
        read_signal(p)
    q = tmp_path / "dup.csv"
    q.write_text("node,re\n0,1.0\n0,2.0\n")
    with pytest.raises(ValueError):
        read_signal(q)
    r = tmp_path / "head.csv"
    r.write_text("n,value\n0,1.0\n")
    with pytest.raises(ValueError):
        read_signal(r)


def test_read_labels(tmp_path):
    p = tmp_path / "lab.csv"
    p.write_text("node,re\n0,1\n1,-1\n2,0\n")
    lab = read_labels(p)
    assert np.array_equal(lab.labels, [1.0, -1.0, 0.0])
    q = tmp_path / "badlab.csv"
    q.write_text("node,re\n0,0.5\n")
    with pytest.raises(ValueError):
        read_labels(q)
    r = tmp_path / "cpxlab.csv"
    r.write_text("node,re,im\n0,1,1\n")
    with pytest.raises(ValueError):
        read_labels(r)


# ---------------------------------------------------------------------------
# filters and reports


def test_filter_round_trip(tmp_path):
    f = GraphFilter([1.0, 0.5 + 0.25j, -0.125])
    p = tmp_path / "f.json"
    write_filter(p, f)
    back = read_filter(p)
    assert np.array_equal(np.asarray(back.taps), np.asarray(f.taps))


def test_filter_real_taps_stay_real(tmp_path):
    f = GraphFilter([1.0, 0.5, -0.5])
    p = tmp_path / "fr.json"
    write_filter(p, f)
    assert not np.iscomplexobj(np.asarray(read_filter(p).taps))


def test_filter_file_shape(tmp_path):
    p = tmp_path / "f.json"
    write_filter(p, GraphFilter([1.0, 2.0]))
    doc = json.loads(p.read_text())
    assert doc["taps"] == [[1.0, 0.0], [2.0, 0.0]]


def test_read_filter_rejects_malformed(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"taps": [[1.0]]}')
    with pytest.raises(ValueError):
        read_filter(p)
    q = tmp_path / "notaps.json"
    q.write_text('{"degree": 3}')
    with pytest.raises(ValueError):
        read_filter(q)
    for i, taps in enumerate(('[1.0, 2.0]', '5', '[["a", 0]]', '[]')):
        r = tmp_path / f"bad{i}.json"
        r.write_text(f'{{"taps": {taps}}}')
        with pytest.raises(ValueError, match=f"bad{i}.json"):
            read_filter(r)


def test_spectrum_file_fields(tmp_path):
    b = decompose(cycle_graph(4))
    ordering = order_frequencies(b)
    p = tmp_path / "spec.json"
    write_spectrum(p, b, ordering)
    doc = json.loads(p.read_text())
    assert doc["order"] == [0, 1, 2, 3]
    assert np.allclose(doc["variations"], [0, np.sqrt(2), np.sqrt(2), 2])
    eig = [complex(re, im) for re, im in doc["eigenvalues"]]
    assert np.allclose(eig, [1, -1j, 1j, -1])
    assert doc["basis_condition"] == pytest.approx(1.0)


def test_reports_are_parseable(tmp_path):
    from graphdsp.fileio import (
        write_accuracy_table,
        write_design_report,
        write_detection_report,
        write_predictions,
    )
    from graphdsp import (
        DetectorConfig,
        LabelSignal,
        ClassifierConfig,
        classify,
        design_ideal_filter,
        detect_malfunction,
        sbm_graph,
        sweep_alpha,
    )

    b = decompose(cycle_graph(8))
    ordering = order_frequencies(b)
    target = ideal_response(ordering, b.eigenvalues, "lowpass")
    design = design_filter(target, 4)
    p = tmp_path / "design.json"
    write_design_report(p, design)
    doc = json.loads(p.read_text())
    assert len(doc["taps"]) == 5
    assert doc["residual"] >= 0
    assert len(doc["frequencies"]) == len(doc["desired"]) == len(doc["achieved"])

    g = b.graph
    filt = design_ideal_filter(b, "highpass", 4).filter
    cfg = DetectorConfig(filter=filt, window=2)
    rng = np.random.default_rng(2)
    hist = [g.signal(rng.standard_normal(8)) for _ in range(2)]
    rep = detect_malfunction(g, b, cfg, hist, g.signal(100 * np.ones(8)))
    q = tmp_path / "det.json"
    write_detection_report(q, rep)
    doc = json.loads(q.read_text())
    assert isinstance(doc["flagged"], bool)
    assert doc["threshold"] > 0
    for idx, mag in doc["offending_coefficients"]:
        assert 0 <= idx < 8 and mag > doc["threshold"]

    sg, truth = sbm_graph(20, 0.6, 0.05, seed=8)
    sweep = sweep_alpha(sg, truth, "shift", np.array([1.0, 2.0]), 0.3, 3, seed=1)
    t = tmp_path / "acc.csv"
    write_accuracy_table(t, sweep)
    lines = t.read_text().splitlines()
    assert lines[0] == "alpha,ratio,mean_accuracy,std"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 1.0
    assert float(first[1]) == 0.3

    values = np.array(truth.labels, float)
    values[10:] = 0.0
    result = classify(sg, LabelSignal(values), ClassifierConfig(alpha=2.0))
    u = tmp_path / "pred.csv"
    write_predictions(u, result)
    lines = u.read_text().splitlines()
    assert lines[0] == "node,predicted,class"
    assert len(lines) == 21
    assert all(line.split(",")[2] in ("1", "-1") for line in lines[1:])
