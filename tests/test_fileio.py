import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
    _pairs,
    _parse_weight,
    _write_json,
    read_edge_list,
    read_filter,
    read_labels,
    read_points,
    read_signal,
    write_edge_list,
    write_filter,
    write_points,
    write_signal,
    write_spectra,
    write_spectrum,
)
from graphdsp.graph import _nonzeros


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


@pytest.mark.parametrize("header", ["src\tdst\tweight\n", "src\tdst\n"])
def test_edge_list_without_edges_names_the_file(tmp_path, header):
    p = tmp_path / "header_only.tsv"
    p.write_text(header)
    with pytest.raises(ValueError, match="header_only.tsv: edge list has no edges"):
        read_edge_list(p)


@pytest.mark.parametrize("row, node", [("0\t3037000499\t1", "3037000499"),
                                       ("3037000499\t0\t1+0i", "3037000499"),
                                       ("0\t9223372036854775808", "9223372036854775808")])
def test_node_ids_whose_keys_would_wrap_are_refused(tmp_path, row, node):
    # n * n must stay below 2^63 for the int64 keys dst*n + src: for a
    # three-field row, a complex weight, and an id beyond int64 itself
    p = tmp_path / "huge.tsv"
    p.write_text(f"src\tdst\tweight\n{row}\n")
    with pytest.raises(ValueError, match=f"huge.tsv: node id {node} too large; node ids "
                                         f"must be below 3037000499"):
        read_edge_list(p)
    # the largest id allowed; its zero weight is no edge, so nothing is N x N
    p.write_text("src\tdst\tweight\n0\t3037000498\t0\n")
    assert read_edge_list(p).n == 3037000499


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
        if w != 0:  # a zero weight, -0.0 too, is no edge
            a[d, s] = w
    return a


def written_edge_lists(tmp_path):
    """Edge lists as the writer makes them: real and complex weights, and
    an isolated node's zero self row."""
    def written(a):
        p = tmp_path / "written.tsv"
        write_edge_list(p, Graph(a))
        return p.read_text()

    rng = np.random.default_rng(11)
    texts = []
    for i in range(3):
        a = rng.standard_normal((9, 9)) * (rng.random((9, 9)) < 0.4)
        texts.append(written(a * np.exp(1j * rng.random((9, 9))) if i == 1 else a))
    rng = np.random.default_rng(7)
    for n in (3, 17, 40):
        a = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3)
        k = rng.integers(n)
        a[k], a[:, k] = 0.0, 0.0  # an isolated node: a zero self row
        texts.append(written(a))
        assert f"\n{k}\t{k}\t0\n" in texts[-1]
    return texts


VALID_TEXTS = ["src\tdst\tweight\n2\t0\t1.5\n0\t2\t-0.0\n1\t1\t\n",
               "src\tdst\n3\t1\n1\t3\n",
               "src\tdst\tweight\n0\t1\t2\n1\t0\t1-2i\n4\t4\t0\n",
               "src\tdst\tweight\n0\t1\t-0.0\n1\t0\t1e-300\n2\t2\t0\n\n3\t0\t-7",
               "src\tdst\tweight\n0\t1\t1-2i\n",     # complex weight
               "src\tdst\tweight\n0\t1\n",           # two fields
               "src\tdst\n0\t1\n",                    # two-field header
               "src\tdst\tweight\n0 \t1\t1\n",       # spaces around a field
               "\nsrc\tdst\tweight\n0\t1\t1\n",      # a blank line before the header
               " \nsrc\tdst\tweight\r\n 1\t0\t 2 \n\t\n0\t1\t\n"]  # blank and CR


def test_read_edge_list_matches_per_row_fill(tmp_path):
    texts = VALID_TEXTS + written_edge_lists(tmp_path)
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
    # a written list with its first edge again at the end
    text = written_edge_lists(tmp_path)[-1]
    p.write_text(text + text.splitlines()[1] + "\n")
    with pytest.raises(ValueError) as got:
        read_edge_list(p)
    with pytest.raises(ValueError) as ref:
        read_edge_list_reference(p)
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("rows, message", [
    ("0\tx\t1", "non-integer node id in row '0\\tx\\t1'"),
    ("0\t1.0\t1", "non-integer node id in row '0\\t1.0\\t1'"),
    ("-1\t0\t1", "node ids must be non-negative, got '-1\\t0\\t1'"),
    ("0\t1\tfoo", "cannot parse edge weight 'foo' in row '0\\t1\\tfoo'"),
    ("0\t1\t2\n1\t0\t1+2k", "cannot parse edge weight '1+2k' in row '1\\t0\\t1+2k'"),
    ("0\t1\t2\t3\n4\t5", "malformed edge row '0\\t1\\t2\\t3'"),
    ("0\t1\t2\n4", "malformed edge row '4'"),
    # a tab always separates fields: a stray one shifts no field
    ("0\t1\t2\n\t0\t1", "non-integer node id in row '\\t0\\t1'"),
    ("0\t1\t\t", "malformed edge row '0\\t1\\t\\t'"),
])
def test_edge_list_refusals_name_the_first_row_at_fault(tmp_path, rows, message):
    p = tmp_path / "bad.tsv"
    p.write_text(f"src\tdst\tweight\n{rows}\n")
    with pytest.raises(ValueError) as got:
        read_edge_list(p)
    assert str(got.value) == f"{p}: {message}"


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
# an edge list read through the cache: a hit is the parse, bit for bit


def same_graph(a, b):
    """The same n and direction, and each stored array of the same dtype and
    bytes."""
    assert (a.n, a.directed) == (b.n, b.directed)
    for x, y in zip(_nonzeros(a), _nonzeros(b)):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def check_hit_is_the_parse(path, cache, directed=None):
    parsed = read_edge_list(path, directed=directed)
    missed = read_edge_list(path, directed=directed, cache=cache)
    hit = read_edge_list(path, directed=directed, cache=cache)
    assert "_cache" not in parsed.__dict__
    assert [g.__dict__["_cache"]["cache"] for g in (missed, hit)] == ["miss", "hit"]
    same_graph(parsed, missed)
    same_graph(parsed, hit)
    assert not any(x.flags.writeable for x in _nonzeros(hit))


def test_a_hit_is_the_parse_of_every_valid_text(tmp_path):
    for i, text in enumerate(VALID_TEXTS + written_edge_lists(tmp_path)):
        p = tmp_path / f"e{i}.tsv"
        p.write_text(text)
        check_hit_is_the_parse(p, tmp_path / "cache")
        check_hit_is_the_parse(p, tmp_path / "cache", directed=True)


FINITE = st.floats(-1e3, 1e3, allow_nan=False)


@st.composite
def edge_list_texts(draw):
    """An edge list over up to 12 nodes: distinct pairs, each a two-field
    row or a row whose weight is real, complex, empty or zero; blank lines
    between rows; and isolated nodes pinned by a zero self row."""
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), unique=True, max_size=30))
    weight = (FINITE.map(lambda w: format(w, ".17g"))
              | st.tuples(FINITE, FINITE).map(lambda z: f"{z[0]!r}{z[1]:+}i")
              | st.sampled_from(["", "0", "-0", "0+0i", "1"]))
    rows = [f"{s}\t{d}" if draw(st.booleans()) else f"{s}\t{d}\t{draw(weight)}"
            for s, d in pairs]
    isolated = draw(st.sets(node, max_size=3)) | ({n - 1} if not rows else set())
    rows += [f"{k}\t{k}\t0" for k in sorted(isolated) if (k, k) not in pairs]
    rows = [row + draw(st.sampled_from(["", "", "\n", "\n \n"])) for row in rows]
    header = draw(st.sampled_from(["src\tdst\tweight", "src\tdst"]))
    return "\n".join([header, *rows]) + "\n"


@settings(max_examples=80, deadline=None)
@given(edge_list_texts(), st.sampled_from([None, True]))
def test_a_hit_is_the_parse_of_a_random_edge_list(text, directed):
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "g.tsv"
        p.write_text(text)
        check_hit_is_the_parse(p, Path(tmp) / "cache", directed)


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


@pytest.mark.parametrize("name, text, message", [
    ("empty.csv", "", "empty point file"),
    ("blank.csv", "\n  \n", "empty point file"),
    ("word.csv", "1.0,2.0\n3.0,east\n", "non-numeric coordinate row"),
])
def test_points_reject_empty_and_non_numeric_files(tmp_path, name, text, message):
    p = tmp_path / name
    p.write_text(text)
    with pytest.raises(ValueError, match=f"{name}: {message}"):
        read_points(p)


@pytest.mark.parametrize("name, text, message", [
    ("empty.csv", "", "empty signal file"),
    ("header.csv", "node,re\n", "signal file has no rows"),
    ("short.csv", "node,re,im\n0,1.0\n", "malformed signal row"),
    ("long.csv", "node,re\n0,1.0,2.0\n", "malformed signal row"),
    ("word.csv", "node,re\n0,one\n", "non-numeric signal row"),
    ("node.csv", "node,re\nzero,1.0\n", "non-numeric signal row"),
])
def test_signal_rejects_empty_and_malformed_files(tmp_path, name, text, message):
    p = tmp_path / name
    p.write_text(text)
    with pytest.raises(ValueError, match=f"{name}: {message}"):
        read_signal(p)


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


def test_signal_rejects_a_negative_node_id(tmp_path):
    p = tmp_path / "negative.csv"
    p.write_text("node,re\n-1,1.0\n0,2.0\n")
    with pytest.raises(ValueError, match="negative.csv: node ids must be non-negative, "
                                         r"got \['-1', '1.0'\]"):
        read_signal(p)


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


# numbers whose text is easy to get wrong: signed zeros, subnormals, the
# extremes of float64, the infinities and NaN
EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                               1e308, -1e308, 1.7976931348623157e308, float("inf"),
                               float("-inf"), float("nan"), 1e16, 1e-7, 0.1])
SHAPES = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4)
JSON_VALUES = st.one_of(
    hnp.arrays(np.float64, SHAPES, elements=st.floats() | EDGE_FLOATS),
    hnp.arrays(np.int64, SHAPES),
    # complex vectors are written as [re, im] rows
    hnp.arrays(np.complex128, st.integers(0, 5), elements=st.complex_numbers()
               | st.builds(complex, EDGE_FLOATS, EDGE_FLOATS)).map(_pairs),
    st.floats() | EDGE_FLOATS, st.integers(), st.booleans(), st.none(),
    # strings that look like the padding between numbers
    st.lists(st.sampled_from(["a, b", "[1, 2]", ",\n  ", "x"]) | st.text(max_size=4),
             max_size=3),
    st.dictionaries(st.text(max_size=3), st.floats() | st.integers(), max_size=2))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(max_size=4), JSON_VALUES, max_size=4))
def test_json_documents_are_the_python_encoder_byte_for_byte(doc):
    # arrays take one C encoder call each; the bytes are json.dump(indent=2)'s
    # on their tolist(), and _pairs' rows are the [float(re), float(im)] pairs
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "doc.json"
        _write_json(p, doc)
        written = p.read_text()
    plain = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in doc.items()}
    assert written == json.dumps(plain, indent=2) + "\n"


def test_pairs_are_the_real_and_imaginary_parts():
    z = np.array([1 + 2j, -0.0 - 0.0j, complex(5e-324, -1e308), np.inf - 1j])
    assert _pairs(z).tolist() == [[float(v.real), float(v.imag)] for v in z]
    assert _pairs(np.array([3.0, -0.0])).tolist() == [[3.0, 0.0], [-0.0, 0.0]]


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


# ---------------------------------------------------------------------------
# table bytes: header, CRLF rows, integer node and class columns, .17g floats


def test_table_bytes(tmp_path):
    from graphdsp.applications import Classification, SweepResult
    from graphdsp.fileio import write_accuracy_table, write_predictions

    def written(write, *args):
        p = tmp_path / "table.csv"
        write(p, *args)
        return p.read_bytes()

    assert written(write_signal, np.array([0.1, -2.0, 1e-17])) == (
        b"node,re\r\n0,0.10000000000000001\r\n1,-2\r\n2,1.0000000000000001e-17\r\n")
    assert written(write_signal, np.array([1 + 0.1j, -0.0 - 3j])) == (
        b"node,re,im\r\n0,1,0.10000000000000001\r\n1,-0,-3\r\n")
    # a complex signal whose imaginary parts are all zero is written as real
    assert written(write_signal, np.array([2.5 + 0j, 1 / 3])) == (
        b"node,re\r\n0,2.5\r\n1,0.33333333333333331\r\n")
    prediction = Classification(predicted=np.array([0.75, -1 / 3]),
                                classes=np.array([1, -1]))
    assert written(write_predictions, prediction) == (
        b"node,predicted,class\r\n0,0.75,1\r\n1,-0.33333333333333331,-1\r\n")
    sweep = SweepResult(alphas=np.array([0.01, 2.0]), ratio=0.3,
                        mean_accuracy=np.array([0.5, 1.0]),
                        std_accuracy=np.array([0.125, 0.0]),
                        best_alpha=2.0, best_accuracy=1.0)
    assert written(write_accuracy_table, sweep) == (
        b"alpha,ratio,mean_accuracy,std\r\n"
        b"0.01,0.29999999999999999,0.5,0.125\r\n"
        b"2,0.29999999999999999,1,0\r\n")
    assert written(write_spectra, np.array([1 + 2j, 0.1]), np.array([-0.5j, 3.0]),
                   np.array([1.0, 0.2 - 1j])) == (
        b"index,before_re,before_im,after_re,after_im,response_re,response_im\r\n"
        b"0,1,2,-0,-0.5,1,0\r\n"
        b"1,0.10000000000000001,0,3,0,0.20000000000000001,-1\r\n")
