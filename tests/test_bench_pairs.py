"""The pure parts of tools/bench_pairs.py: pair summaries, hash agreement,
pytest --durations parsing, a record of the durations alone, and the
commits a record names."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(side, pair, pass_s, failed=0):
    return {"side": side, "pair": pair, "setup_s": 1.0, "pass_s": pass_s,
            "peak_rss_mb": 100.0 if side == "parent" else 70.0,
            "minor_page_faults": 10, "attempted": 5, "failed": failed}


def test_summarise_counts_wins_per_pair_and_failed_ops():
    runs = [_run("parent", 1, 9.0), _run("change", 1, 8.0),
            _run("change", 2, 8.5), _run("parent", 2, 8.4, failed=1),
            _run("parent", 3, 9.5), _run("change", 3, 7.9)]
    s = bench_pairs.summarise(runs)
    assert s["pass_s_change_wins"] == "2/3"
    assert s["peak_rss_mb_change_wins"] == "3/3"
    assert s["setup_s_change_wins"] == "0/3"  # a tie is not a win
    assert s["parent"]["pass_s"] == pytest.approx({"median": 9.0, "q1": 8.7, "q3": 9.25, "n": 3})
    assert s["parent"]["failed_ops"] == 1 and s["change"]["failed_ops"] == 0
    assert s["change"]["attempted_ops"] == 15


def _pairs(parent, change):
    return [r for k, (p, c) in enumerate(zip(parent, change), 1)
            for r in (_run("parent", k, p), _run("change", k, c))]


def test_claim_holds_needs_nine_wins_in_ten_and_a_gap_past_the_parent_spread():
    parent = [10.0 + 0.1 * k for k in range(10)]  # quartiles 10.225 and 10.675
    s = bench_pairs.summarise(_pairs(parent, [9.0] * 9 + [11.0]))
    assert s["pass_s_change_wins"] == "9/10" and s["pass_s_claim_holds"]
    s = bench_pairs.summarise(_pairs(parent, [9.0] * 8 + [11.0] * 2))
    assert s["pass_s_change_wins"] == "8/10" and not s["pass_s_claim_holds"]
    # 10/10 pairs, but a median gap (0.3) inside the parent's spread (0.45)
    s = bench_pairs.summarise(_pairs(parent, [p - 0.3 for p in parent]))
    assert s["pass_s_change_wins"] == "10/10" and not s["pass_s_claim_holds"]
    assert not s["setup_s_claim_holds"]  # ties win nothing


def test_compare_hashes_names_every_differing_artifact():
    a = {"mlm": {"enc.semm": "x", "loss.csv": "y"}}
    b = {"mlm": {"enc.semm": "x", "loss.csv": "z"}}
    same = bench_pairs.compare_hashes({"parent": [a, a], "change": [a]})
    assert same["all_identical"] and same["artifacts"] == 2 and same["passes_compared"] == 3
    assert same["sha256"] == {"mlm/enc.semm": "x", "mlm/loss.csv": "y"}
    diff = bench_pairs.compare_hashes({"parent": [a], "change": [a, b]})
    assert not diff["all_identical"] and diff["differing"] == ["mlm/loss.csv"]


def test_parse_durations_keeps_slow_entries_and_the_total():
    text = (
        "============ slowest 30 durations ============\n"
        "88.12s setup    tests/test_acceptance.py::test_c04_x\n"
        "44.00s call     tests/test_acceptance.py::test_c04_x\n"
        "0.50s call     tests/test_nn.py::test_y\n"
        "=========== 1 failed, 333 passed in 264.31s (0:04:24) ===========\n"
    )
    got = bench_pairs.parse_durations(text, min_s=5.0)
    assert got["total_s"] == 264.31 and got["summary"] == "1 failed, 333 passed"
    assert [(e["seconds"], e["when"]) for e in got["slow"]] == [(88.12, "setup"), (44.0, "call")]


def test_durations_alone_then_appended_to(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    sides = []
    for side, total in (("parent", 20.0), ("change", 15.0)):
        path = tmp_path / f"{side}.txt"
        path.write_text(f"9.00s call     tests/test_a.py::test_x\n1 failed, 3 passed in {total}s\n")
        sides.append(str(path))
    out = tmp_path / "BENCH_suite.json"
    argv = ["--parent", str(tmp_path), "--area", "suite", "--workloads", "--durations", *sides]
    assert bench_pairs.main(argv) == 0
    record = json.loads(out.read_text())
    assert record["workloads"] == {}
    assert record["env"]["nproc"] >= record["env"]["usable_cpus"] >= 1 and record["env"]["numpy"]
    assert record["suite_durations"]["change"]["total_s"] == 15.0
    # --append keeps what the file holds
    record["workloads"] = {"units": {"0": {"runs": []}}}
    out.write_text(json.dumps(record))
    assert bench_pairs.main(argv + ["--append"]) == 0
    appended = json.loads(out.read_text())
    assert appended["workloads"] == {"units": {"0": {"runs": []}}}
    # the earlier durations pair is kept, not overwritten
    assert appended["earlier_suite_durations"] == [record["suite_durations"]]
    assert appended["suite_durations"] == record["suite_durations"]


def test_each_record_names_both_sides_commits_or_none(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*argv):
        return subprocess.run(["git", "-c", "user.name=b", "-c", "user.email=b@b", *argv],
                              cwd=repo, check=True, capture_output=True, text=True).stdout

    git("init", "-q")
    (repo / "f.txt").write_text("one")
    git("add", "f.txt")
    git("commit", "-q", "-m", "one")
    sha = git("rev-parse", "HEAD").strip()
    plain = repo / "plain"  # a directory inside a checkout is not one itself
    plain.mkdir()
    assert bench_pairs.head_commit(repo) == sha  # untracked files do not count
    assert bench_pairs.head_commit(plain) is None
    (repo / "f.txt").write_text("two")
    assert bench_pairs.head_commit(repo) == sha + "+dirty"

    def fake_run(root, workload, seed):
        run = dict(setup_s=1.0, pass_s=2.0, peak_rss_mb=3.0, attempted=1, failed=0,
                   minor_page_faults=0)
        return {"run": run, "env": {"nproc": 1}, "hashes": [{}]}

    monkeypatch.setattr(bench_pairs, "ROOT", plain)
    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    durations = tmp_path / "d.txt"
    durations.write_text("1 passed in 1.0s\n")
    argv = ["--parent", str(repo), "--area", "x", "--workloads", "units", "--pairs", "1",
            "--durations", str(durations), str(durations)]
    assert bench_pairs.main(argv) == 0
    record = json.loads((plain / "BENCH_x.json").read_text())
    expected = {"parent": sha + "+dirty", "change": None}
    assert record["workloads"]["units"]["0"]["commits"] == expected
    assert record["suite_durations"]["commits"] == expected
