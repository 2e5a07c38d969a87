"""scripts/paired_bench.py's summary of paired benchmark result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "paired_bench.py"
_spec = importlib.util.spec_from_file_location("paired_bench", _PATH)
paired_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired_bench)


def _line(**values) -> str:
    return json.dumps({"correct": True, "attempted": 100, "failed": 0,
                       "metrics": {k: {"value": v, "unit": "x"} for k, v in values.items()}})


def test_summary_reports_medians_the_median_pair_change_and_lower_pairs():
    parent = [_line(t=10.0, m=5.0), _line(t=12.0, m=5.0), _line(t=8.0, m=5.0)]
    change = [_line(t=9.0, m=5.0), _line(t=12.6, m=5.0), _line(t=7.2, m=5.0)]
    t, m = paired_bench.summarize(parent, change, ["t", "m"])
    assert t["metric"] == "t" and (t["parent"], t["change"]) == (10.0, 9.0)
    assert t["parent_iqr"] == pytest.approx(4.0)  # quartiles 8 and 12 of 8, 10, 12
    # Per-pair changes -10%, +5%, -10%: their median, and two lower pairs.
    assert t["delta"] == pytest.approx(-0.1)
    assert (t["lower"], t["pairs"]) == (2, 3)
    assert (m["delta"], m["lower"]) == (0.0, 0)
    text = paired_bench.format_rows([t, m])
    assert "-10.0%" in text and "2/3" in text and "0/3" in text


def test_summary_of_a_zero_parent_reading_has_no_relative_change():
    [row] = paired_bench.summarize([_line(f=0.0)], [_line(f=1.0)], ["f"])
    assert row["delta"] is None and row["lower"] == 0 and row["parent_iqr"] == 0.0
    assert "n/a" in paired_bench.format_rows([row])


def test_summary_needs_matching_pairs():
    with pytest.raises(ValueError):
        paired_bench.summarize([_line(t=1.0)], [], ["t"])


def test_gated_metrics_are_the_benchmarks_end_to_end_list():
    root = _PATH.parents[1]
    names = paired_bench.gated_metrics(root)
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert names == [m["name"] for m in spec["end_to_end"]] and "round_norm_p50" in names


def test_src_lines_count_every_python_file_under_src(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "top.py").write_text("a = 1\nb = 2\n\n", encoding="utf-8")
    (tmp_path / "src" / "pkg" / "mod.py").write_text("def f():\n    return 1", encoding="utf-8")
    (tmp_path / "src" / "pkg" / "notes.txt").write_text("not code\n", encoding="utf-8")
    (tmp_path / "setup.py").write_text("outside src\n", encoding="utf-8")
    assert paired_bench.src_lines(tmp_path) == 5
