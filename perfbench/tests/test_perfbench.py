"""Tests of the benchmark itself: small-N smoke runs and rejected outputs.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

SMALL = {
    "sensor_detect": dict(n=120),
    "sym_spectrum": dict(n=150),
    "label_sweep": dict(n_sweep=200, n_large=300, p=0.2, q=0.01),
}
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    result, record = run.measure(name, 5, 0.1, trace, tmp_path, sizes=SMALL[name])
    assert result["correct"], record["errors"]
    assert not record["missing_calls"]
    assert result["failed"] == 0 and result["attempted"] >= 3
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert record["pipelines"][1]["traced"]
        assert result["metrics"]["cli.main_s"]["value"] > 0


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One untraced small pipeline per workload, outputs kept on disk."""
    made = {}
    for name in WORKLOADS:
        root = tmp_path_factory.mktemp(name)
        (root / "inputs").mkdir()
        workload = WORKLOADS[name](7, root / "inputs", **SMALL[name])
        _, records = run.run_pipeline(workload, root / "out", run.child_env(), False,
                                      deadline=run.time.perf_counter() + 120)
        assert not any(r["error"] for r in records), records
        made[name] = (workload, root / "out")
    return made


def _edit_line(path: Path, index, edit):
    lines = path.read_text().splitlines()
    lines[index] = edit(lines[index])
    path.write_text("\n".join(lines) + "\n")


def _edit_json(path: Path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _scale_last_field(factor):
    def edit(line):
        sep = "\t" if "\t" in line else ","
        head, _, last = line.rpartition(sep)
        return f"{head}{sep}{float(last) * factor!r}"
    return edit


def _bump_field(col, delta):
    def edit(line):
        parts = line.split(",")
        parts[col] = repr(float(parts[col]) + delta)
        return ",".join(parts)
    return edit


def _add_offender(doc):
    doc["offending_coefficients"].append([0, doc["threshold"] * 0.5])
    doc["flagged"] = True


def _flag_replay(doc):
    doc["offending_coefficients"] = [[0, doc["threshold"] * 2.0]]
    doc["flagged"] = True


def _unsort_variations(doc):
    order = doc["order"]
    doc["variations"][order[-1]] = -1.0


CORRUPTIONS = {
    ("sensor_detect", "gen"):
        lambda o: _edit_line(o / "gen" / "graph.tsv", 1, _scale_last_field(1 + 1e-9)),
    ("sym_spectrum", "spectrum"):
        lambda o: _edit_json(o / "spectrum" / "spectrum.json",
                             lambda d: d["eigenvalues"][0].__setitem__(0, d["eigenvalues"][0][0]
                                                                        + 1e-6)),
    ("sensor_detect", "design"):
        lambda o: _edit_json(o / "design" / "design.json",
                             lambda d: d["achieved"][3].__setitem__(0, d["achieved"][3][0]
                                                                     + 1e-6)),
    ("sym_spectrum", "filter"):
        lambda o: _edit_line(o / "filter" / "filtered.csv", 5, _bump_field(1, 1e-3)),
    ("sensor_detect", "detect"):
        lambda o: _edit_json(o / "detect" / "detection.json", _add_offender),
    ("sensor_detect", "detect_design"):
        lambda o: _edit_json(o / "detect_design" / "detection.json", _flag_replay),
    ("label_sweep", "classify"):
        lambda o: _edit_line(o / "classify" / "predictions.csv", 4, _bump_field(1, 0.01)),
    ("label_sweep", "classify_laplacian"):
        lambda o: _edit_line(o / "classify_laplacian" / "predictions.csv", 4,
                             _bump_field(1, 0.01)),
    ("label_sweep", "sweep"):
        lambda o: (o / "sweep" / "accuracy.csv").write_text(
            "\n".join((o / "sweep" / "accuracy.csv").read_text().splitlines()[:-1]) + "\n"),
}


def test_every_check_has_a_corruption(outputs):
    commands = {c.name for workload, _ in outputs.values() for c in workload.commands}
    assert commands == {c for _, c in CORRUPTIONS}


@pytest.mark.parametrize("key", sorted(CORRUPTIONS), ids="-".join)
def test_corrupted_output_is_rejected(key, outputs, tmp_path):
    workload, out = outputs[key[0]]
    cmd = next(c for c in workload.commands if c.name == key[1])
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    cmd.check(copy)
    CORRUPTIONS[key](copy)
    with pytest.raises(CheckFailed):
        cmd.check(copy)


def test_spectrum_order_must_not_decrease_variations(outputs, tmp_path):
    workload, out = outputs["sym_spectrum"]
    cmd = next(c for c in workload.commands if c.name == "spectrum")
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    _edit_json(copy / "spectrum" / "spectrum.json", _unsort_variations)
    with pytest.raises(CheckFailed, match="variations"):
        cmd.check(copy)


def test_self_times_add_up_to_the_traced_wall_time():
    doc = {"import_s": 0.5, "start": 0.0, "end": 10.0, "spans": [
        {"name": "sweep_alpha", "layer": "applications", "start": 1.0, "end": 8.0,
         "parent": None},
        {"name": "classify", "layer": "applications", "start": 2.0, "end": 5.0,
         "parent": 0},
        {"name": "spectral_radius", "layer": "graph", "start": 2.5, "end": 3.0,
         "parent": 1},
        {"name": "write_accuracy_table", "layer": "fileio", "start": 8.0, "end": 9.0,
         "parent": None},
    ]}
    m, called, gap = spans.command_metrics(doc)
    assert gap < 1e-12
    assert m["applications.sweep_alpha_s"] == 4.0
    assert m["applications.classify_s"] == 3.0
    assert m["applications.self_s"] == 6.5
    assert m["graph.spectral_radius_s"] == 0.5
    assert m["fileio.write_s"] == 1.0
    assert m["cli.self_s"] == 2.0
    assert "decompose" not in called and m["spectral.decompose_calls"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "sensor_detect", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
