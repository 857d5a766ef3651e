"""Alternating parent/change benchmark pairs, summarised into BENCH_<area>.json.

    python3 tools/bench_pairs.py --parent ../parent-checkout --area train \\
        --workloads train --seeds 0 7919 --pairs 10 \\
        [--durations parent_pytest.txt change_pytest.txt] [--append]

Each pair runs the unchanged benchmark command

    python3 perfbench/run.py --workload W --seed S --seconds 10 --trace 0

once in the parent checkout and once in this one, in an order that
alternates from pair to pair, so slow drift on a shared machine hits both
sides alike. After each run the tool reads the printed result and the run's
``.perfbench/results`` record. It writes ``BENCH_<area>.json`` at the root of
this checkout, holding the machine and the numpy/BLAS build, per-side medians
and quartiles of ``setup_s``, ``pass_s`` and ``peak_rss_mb``, the pairs each
side won, failed operations, the minor page faults of each run, and whether
every artifact hashed the same in every pass of both sides, with each
artifact's sha256. Each workload's record and each durations pair also
holds both sides' ``git rev-parse HEAD``, marked ``+dirty`` where tracked
files differ from it (None for a side that is not a git checkout), so the
file names the commits it compares.

``<metric>_claim_holds`` applies the rule a claimed gain must meet: the
change won at least 9 of every 10 pairs, and the parent's median exceeds
the change's by more than the parent's interquartile range.

``--durations`` takes the output of ``pytest --durations=N`` from each side
and records every set-up and call that took at least ``MIN_DURATION_S``
seconds, with the suite's total time; with ``--workloads`` and no names it
records only that. ``--append`` adds to an existing ``BENCH_<area>.json``,
so one file can hold workloads run on different seeds, and durations pairs
run at different commits: the earlier pairs move to
``earlier_suite_durations``, oldest first.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("setup_s", "pass_s", "peak_rss_mb")  # all lower-is-better
SIDES = ("parent", "change")
SECONDS = 10  # run length, as BENCHMARK.json's run_seconds
MIN_DURATION_S = 5.0
CLAIM_WINS = (9, 10)  # a claim needs at least 9 wins in every 10 pairs


def run_once(root: Path, workload: str, seed: int) -> dict:
    """One benchmark run in ``root``; its result, record and page faults."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    minflt = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = root / ".perfbench" / "results" / f"{workload}-seed{seed}-trace0-full.json"
    record = json.loads(record_path.read_text())
    run = {name: result["metrics"][name]["value"] for name in METRICS}
    run.update(
        attempted=result["attempted"],
        failed=result["failed"],
        minor_page_faults=minflt,
        setup_runs_s=record["setup_s"],
        passes_s=[p["wall_s"] for p in record["passes"]],
    )
    return {"run": run, "env": record["env"], "hashes": [p["hashes"] for p in record["passes"]]}


def head_commit(root: Path) -> str | None:
    """The commit checked out at ``root``, marked ``+dirty`` when tracked
    files differ from it, or None if ``root`` is not a git checkout; a
    repository around ``root`` does not count."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))

    def git(*argv):
        return subprocess.run(["git", *argv], cwd=root, env=env, capture_output=True, text=True)

    try:
        head = git("rev-parse", "HEAD")
        changed = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    except OSError:  # no git on this machine
        return None
    if head.returncode != 0:
        return None
    return head.stdout.strip() + ("+dirty" if changed else "")


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def compare_hashes(per_side: dict[str, list[dict]]) -> dict:
    """Do all passes of all runs of both sides agree, artifact by artifact?"""
    reference = per_side["parent"][0]
    differing = set()
    passes = 0
    for side in SIDES:
        for hashes in per_side[side]:
            passes += 1
            for stage in reference.keys() | hashes.keys():
                a, b = reference.get(stage, {}), hashes.get(stage, {})
                differing |= {f"{stage}/{name}" for name in a.keys() | b.keys()
                              if a.get(name) != b.get(name)}
    artifacts = {f"{stage}/{name}": digest
                 for stage, files in reference.items() for name, digest in files.items()}
    return {
        "artifacts": len(artifacts),
        "passes_compared": passes,
        "all_identical": not differing,
        "differing": sorted(differing),
        "sha256": dict(sorted(artifacts.items())),
    }


def summarise(runs: list[dict]) -> dict:
    by_side = {side: [r for r in runs if r["side"] == side] for side in SIDES}
    out = {}
    for side, rs in by_side.items():
        out[side] = {name: quartiles([r[name] for r in rs]) for name in METRICS}
        out[side]["minor_page_faults"] = quartiles([r["minor_page_faults"] for r in rs])
        out[side]["failed_ops"] = sum(r["failed"] for r in rs)
        out[side]["attempted_ops"] = sum(r["attempted"] for r in rs)
    pairs = sorted({r["pair"] for r in runs})
    for name in METRICS:
        wins = sum(
            next(r[name] for r in by_side["change"] if r["pair"] == k)
            < next(r[name] for r in by_side["parent"] if r["pair"] == k)
            for k in pairs
        )
        out[f"{name}_change_wins"] = f"{wins}/{len(pairs)}"
        parent, change = out["parent"][name], out["change"][name]
        out[f"{name}_claim_holds"] = (
            wins * CLAIM_WINS[1] >= CLAIM_WINS[0] * len(pairs)
            and parent["median"] - change["median"] > parent["q3"] - parent["q1"]
        )
    return out


def parse_durations(text: str, min_s: float) -> dict:
    """Slow entries and the total time of a ``pytest --durations`` report."""
    slow = [
        {"seconds": float(m[1]), "when": m[2], "test": m[3]}
        for m in re.finditer(r"^([\d.]+)s (setup|call|teardown)\s+(\S+)", text, re.M)
        if float(m[1]) >= min_s
    ]
    total = re.search(r"(\d+ (?:passed|failed).*?) in ([\d.]+)s", text)
    return {
        "summary": total[1] if total else None,
        "total_s": float(total[2]) if total else None,
        "slow": slow,
    }


def machine() -> dict:
    """The machine and numpy build, for a record that runs no benchmark."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        # the CPUs this process may run on, which a parallel speed-up is bounded by
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--area", required=True, help="names the output file BENCH_<area>.json")
    ap.add_argument("--workloads", nargs="*", default=["train"])
    ap.add_argument("--seeds", nargs="+", type=int, default=[0])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--durations", nargs=2, type=Path, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--append", action="store_true", help="add to an existing record")
    args = ap.parse_args(argv)
    out = ROOT / f"BENCH_{args.area}.json"

    roots = {"parent": args.parent.resolve(), "change": ROOT}
    commits = {side: head_commit(root) for side, root in roots.items()}
    report = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} --trace 0",
        "pairs_alternate_order": True,
        "env": None,
        "workloads": {},
    }
    if args.append and out.exists():
        report = json.loads(out.read_text())
    for workload in args.workloads:
        for seed in args.seeds:
            runs, hashes = [], {side: [] for side in SIDES}
            for pair in range(1, args.pairs + 1):
                order = SIDES if pair % 2 else SIDES[::-1]
                for side in order:
                    got = run_once(roots[side], workload, seed)
                    report["env"] = report["env"] or got["env"]
                    runs.append({"side": side, "pair": pair, **got["run"]})
                    hashes[side].extend(got["hashes"])
                    print(f"{workload} seed {seed} pair {pair} {side}: "
                          + " ".join(f"{m}={got['run'][m]:.3f}" for m in METRICS),
                          file=sys.stderr, flush=True)
            report["workloads"].setdefault(workload, {})[str(seed)] = {
                "commits": commits,
                "summary": summarise(runs),
                "artifact_hashes": compare_hashes(hashes),
                "runs": runs,
            }
    env = dict(report["env"] or {})
    for key in ("workload", "seed", "seconds", "trace", "size"):
        env.pop(key, None)
    report["env"] = env or machine()
    if args.durations:
        if "suite_durations" in report:  # only with --append: keep the earlier pairs
            report.setdefault("earlier_suite_durations", []).append(report["suite_durations"])
        report["suite_durations"] = {
            "commits": commits,
            **{side: parse_durations(path.read_text(), MIN_DURATION_S)
               for side, path in zip(SIDES, args.durations)},
        }
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
