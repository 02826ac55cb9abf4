import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_lines_delta_is_from_the_highest_numbered_other_record(tmp_path, monkeypatch):
    bench_record = load_bench_record()
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    (tmp_path / "src" / "toaloc").mkdir(parents=True)
    (tmp_path / "src" / "toaloc" / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "src" / "toaloc" / "b.py").write_text("z = 3\n")
    # numbered, not sorted as text: 10 is the latest; the output file itself
    # and a name without a number are not earlier records
    for name, total in (("BENCH_9", 50), ("BENCH_10", 1), ("BENCH_11", 70), ("BENCH_x", 90)):
        (tmp_path / f"{name}.json").write_text(json.dumps({"src_lines": {"total": total}}))
    lines = bench_record.src_lines(tmp_path / "BENCH_11.json")
    assert lines == {"a.py": 2, "b.py": 1, "total": 3, "delta": 2}
    (tmp_path / "BENCH_10.json").unlink()
    assert bench_record.src_lines(tmp_path / "BENCH_11.json")["delta"] == 3 - 50


def test_src_lines_delta_is_none_without_an_earlier_record(tmp_path, monkeypatch):
    bench_record = load_bench_record()
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    (tmp_path / "src" / "toaloc").mkdir(parents=True)
    (tmp_path / "src" / "toaloc" / "a.py").write_text("x = 1\n")
    assert bench_record.src_lines(tmp_path / "BENCH_1.json") == {"a.py": 1, "total": 1, "delta": None}
