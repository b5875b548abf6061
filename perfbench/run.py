"""regpos benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload qs --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Each repetition of the workload's timed
call runs in a fresh interpreter (perfbench/worker.py) with --threads 1 and
single-threaded BLAS; repetitions continue until --seconds of timed calls
are spent.  Every run makes at least two repetitions, whose outputs must
be byte-identical; the last one of a `regpos` run is at --threads 2.
The run then checks the outputs against exact references and prints, as
its last stdout line, one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with --trace 0, the per-layer
metrics of one traced repetition with --trace 1.  Everything it writes
goes under .perfbench/ in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from reference import (  # noqa: E402
    N,
    PROBE_SAMPLES,
    SECTION_KS,
    SECTION_SAMPLES,
    exact_section_radii,
    haar_bases,
    shortfall_p90,
)
from spans import UNITS  # noqa: E402

QS_CONFIG = {"body": {"preset": "b1", "dim": N}, "k": 4, "trials": 500}
REGPOS_CONFIG = {
    "bodies": [{"preset": p, "dim": N} for p in ("b1", "binf", "wlp1.5", "wlp3", "ell_cond100")],
    "alpha": 0.75,
    "samples": 20000,
}
QS_C = 0.5                 # the CLI's default c, which sets the 2e^{-ck} exceedance bound
CERTIFICATE_MAX = 1e-3
EXACT_RTOL = 1e-9          # a radius may exceed its exact value by this much (rounding)
ELLIPSOID_RTOL = 1e-10     # the eigen route must agree with eigvalsh to this
SETUP_PROBES = 3           # extra set-up-only interpreters per untraced run
MIN_REPS = 2
DEADLINE_S = 170.0
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
OUTPUT_SUFFIXES = (".jsonl", ".csv", ".npy")


class BenchError(Exception):
    pass


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------


def make_inputs(workload, seed, run_dir):
    """Inputs drawn from the seed: the shortfall probe's hyperplanes, and the
    section_radii bases or the CLI config."""
    bases = {"probe": haar_bases(np.random.default_rng([seed, 0]), N, N - 1, PROBE_SAMPLES)}
    np.save(os.path.join(run_dir, "probe_bases.npy"), bases["probe"])
    if workload == "section_radii":
        sections = {f"k{k}": haar_bases(np.random.default_rng([seed, k]), N, N - k + 1, SECTION_SAMPLES)
                    for k in SECTION_KS}
        np.savez(os.path.join(run_dir, "inputs.npz"), **sections)
        bases.update(sections)
    else:
        config = {"qs": QS_CONFIG, "regpos": REGPOS_CONFIG}[workload]
        with open(os.path.join(run_dir, "config.json"), "w") as fh:
            json.dump(config, fh)
    return bases


# ----------------------------------------------------------------------
# repetitions
# ----------------------------------------------------------------------


def spawn(args, run_dir, tag, deadline, *, threads=1, trace=False, setup_only=False, probe=False):
    """One worker process; returns its report with `setup_s` added."""
    rep_dir = os.path.join(run_dir, tag)
    os.makedirs(rep_dir)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--run-dir", run_dir, "--rep-dir", rep_dir,
           "--threads", str(threads)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only + ["--probe"] * probe
    env = {**os.environ, **SINGLE_THREAD}
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for repetition {tag}")
    with open(os.path.join(rep_dir, "stdout.txt"), "w") as out, \
            open(os.path.join(rep_dir, "stderr.txt"), "w") as err:
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=out, stderr=err, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"repetition {tag} passed the {DEADLINE_S:.0f} s deadline")
    report_path = os.path.join(rep_dir, "worker.json")
    if proc.returncode != 0 or not os.path.exists(report_path):
        with open(os.path.join(rep_dir, "stderr.txt")) as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"repetition {tag} exited with {proc.returncode}:\n{tail}")
    with open(report_path) as fh:
        report = json.load(fh)
    report.update(tag=tag, dir=rep_dir, threads=threads, traced=trace,
                  setup_s=report["ready"] - t_spawn)
    return report


def run_reps(args, run_dir, deadline):
    """Set-up probes, timed repetitions and, for regpos, the --threads 2 repetition."""
    setups = []
    reps = []
    if args.trace:
        reps.append(spawn(args, run_dir, "untraced", deadline))
        reps.append(spawn(args, run_dir, "traced", deadline, trace=True))
    else:
        for i in range(SETUP_PROBES):
            setups.append(spawn(args, run_dir, f"setup{i}", deadline, setup_only=True, probe=i == 0))
        # the threads-2 repetition also counts towards the two identical outputs
        need = MIN_REPS - (args.workload == "regpos")
        while len(reps) < need or sum(r["wall_s"] for r in reps) < args.seconds:
            if len(reps) >= need and time.monotonic() + 2 * reps[-1]["wall_s"] > deadline:
                break
            reps.append(spawn(args, run_dir, f"rep{len(reps)}", deadline))
    if args.workload == "regpos":
        reps.append(spawn(args, run_dir, "threads2", deadline, threads=2))
    return setups, reps


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------


def output_files(rep_dir):
    return sorted(f for f in os.listdir(rep_dir) if f.endswith(OUTPUT_SUFFIXES) and f != "trace.jsonl")


def check_identical(reps):
    """Names of repetitions whose output bytes differ from the first one's."""
    first = reps[0]["dir"]
    names = output_files(first)
    bad = []
    for rep in reps[1:]:
        if output_files(rep["dir"]) != names:
            bad.append(rep["tag"])
            continue
        for name in names:
            with open(os.path.join(first, name), "rb") as a, open(os.path.join(rep["dir"], name), "rb") as b:
                if a.read() != b.read():
                    bad.append(rep["tag"])
                    break
    return bad


def read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_qs(rep, bases, problems):
    trials = QS_CONFIG["trials"]
    records = read_jsonl(os.path.join(rep["dir"], "qs.jsonl"))
    rows = read_csv(os.path.join(rep["dir"], "qs_summary.csv"))
    kinds = [r["experiment"] for r in records]
    if kinds != ["qs_trial"] * trials + ["qs_summary"] or len(rows) != 1:
        problems.append(f"qs: expected {trials} trial records, 1 summary and 1 CSV row")
        return trials, trials
    failed = 0
    for r in records[:-1]:
        d = [r["measured"][key]["value"] for key in ("d_section_of_projection", "d_projection_of_section")]
        failed += not all(math.isfinite(v) and v >= 1.0 for v in d)
    summary = records[-1]["measured"]
    bound = 2.0 * math.exp(-QS_C * QS_CONFIG["k"])
    slack = 1.96 * math.sqrt(bound * (1.0 - bound) / trials)
    exceed = max(summary["exceed_sop"]["value"], summary["exceed_pos"]["value"])
    if not exceed <= bound + slack:
        problems.append(f"qs: exceedance {exceed:.4f} above 2e^-ck + slack = {bound + slack:.4f}")
    if rep["rc"] != 0:
        failed = trials
    return trials, failed


def check_regpos(rep, bases, problems):
    count = len(REGPOS_CONFIG["bodies"])
    records = read_jsonl(os.path.join(rep["dir"], "regpos.jsonl"))
    rows = read_csv(os.path.join(rep["dir"], "regpos_summary.csv"))
    if len(records) != count or len(rows) != count:
        problems.append(f"regpos: expected {count} records and CSV rows")
        return count, count
    failed = 0
    for rec, row in zip(records, rows):
        cert = rec["measured"]["certificate"]["value"]
        failed += not (row["converged"] == "True" and math.isfinite(cert) and cert <= CERTIFICATE_MAX)
    if rep["rc"] != 0:
        failed = count
    return count, failed


def check_section_radii(rep, bases, problems):
    records = read_jsonl(os.path.join(rep["dir"], "section_radii.jsonl"))
    rows = read_csv(os.path.join(rep["dir"], "section_radii_summary.csv"))
    radii = np.load(os.path.join(rep["dir"], "radii.npy"))
    expected = radii.shape[0] * len(SECTION_KS)
    if len(records) != expected or len(rows) != expected or radii.shape[1:] != (len(SECTION_KS), SECTION_SAMPLES):
        problems.append(f"section_radii: expected {expected} records and CSV rows")
        return radii.size, radii.size
    failed = 0
    worst_ellipsoid = 0.0
    for i, rec in enumerate(records):
        bi, ki = divmod(i, len(SECTION_KS))
        k = SECTION_KS[ki]
        values = radii[bi, ki]
        p = rec["params"]
        bad = ~np.isfinite(values)
        bad |= values < p["r_K"] * (1 - EXACT_RTOL)
        bad |= values > p["R_K"] * (1 + EXACT_RTOL)
        exact = exact_section_radii(rec["body"], bases[f"k{k}"])
        if exact is not None:
            bad |= values > exact * (1 + EXACT_RTOL)
            if rec["body"]["family"] == "ellipsoid":
                rel = np.abs(values - exact) / exact
                worst_ellipsoid = max(worst_ellipsoid, float(rel.max()))
                bad |= rel > ELLIPSOID_RTOL
        failed += int(bad.sum())
    rep["ellipsoid_max_rel_err"] = worst_ellipsoid
    if rep["rc"] != 0:
        failed = radii.size
    return radii.size, failed


CHECKS = {"qs": check_qs, "regpos": check_regpos, "section_radii": check_section_radii}


def probe_shortfall(rep, bases):
    values = np.load(os.path.join(rep["dir"], "probe_radii.npy"))
    exact = exact_section_radii({"family": "weighted_lp", "p": 1, "weights": [1.0] * N}, bases)
    return shortfall_p90(values, exact)


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------


def environment():
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = dirty = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
            dirty = bool(subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                                        text=True, timeout=30, check=True).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "worker_threads_env": SINGLE_THREAD,
        "git_commit": commit,
        "git_dirty": dirty,
    }


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------


def run(args):
    deadline = time.monotonic() + DEADLINE_S
    run_dir = os.path.join(ROOT, ".perfbench", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    bases = make_inputs(args.workload, args.seed, run_dir)
    setups, reps = run_reps(args, run_dir, deadline)

    problems = []
    mismatched = check_identical(reps)
    if mismatched:
        problems.append(f"outputs differ from {reps[0]['tag']} in: {', '.join(mismatched)}")
    attempted, failed = CHECKS[args.workload](reps[0], bases, problems)

    timed = [r for r in reps if r["threads"] == 1 and not r["traced"]]
    if args.trace:
        traced = next(r for r in reps if r["traced"])
        layers = {**traced["layers"], "trace.overhead_s": traced["wall_s"] - timed[0]["wall_s"]}
        metrics = {name: (value, UNITS[name]) for name, value in layers.items()}
    else:
        metrics = {
            "wall_s": (statistics.median(r["wall_s"] for r in timed), "s"),
            "setup_s": (statistics.median(r["setup_s"] for r in setups + reps), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in timed), "MB"),
            "ok_frac": (1.0 - failed / attempted, "ratio"),
            "radius_shortfall_p90": (probe_shortfall(setups[0], bases["probe"]), "ratio"),
        }
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(), "problems": problems,
        "repetitions": [{k: r[k] for k in ("tag", "threads", "traced", "setup_s", "wall_s", "peak_rss_mb",
                                           "ellipsoid_max_rel_err") if k in r} for r in setups + reps],
    }
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    for name in ("probe_bases.npy", "inputs.npz"):  # the seed regenerates them
        if os.path.exists(os.path.join(run_dir, name)):
            os.remove(os.path.join(run_dir, name))
    return detail, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(CHECKS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "regpos", "__init__.py")):
        print(f"perfbench: no regpos sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        detail, result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"environment": detail["environment"]}))
    for problem in detail["problems"]:
        print(f"problem: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
