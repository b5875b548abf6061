"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload qs --seed 1 --run-dir D --rep-dir R \
        [--threads 1] [--trace] [--setup-only [--probe]]

Set-up (imports, loading the inputs, building the section_radii bodies)
ends at the `ready` timestamp, taken on the system-wide monotonic clock so
that the parent can subtract its own spawn time.  The timed call writes
its outputs into --rep-dir; the report goes to <rep-dir>/worker.json.
--probe runs the radius-shortfall probe after set-up instead.  Run by
perfbench/run.py, which owns the inputs and all checks.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

import regpos  # noqa: E402
from regpos import cli, regular  # noqa: E402
from regpos import subspaces as sp  # noqa: E402
from regpos.records import ExperimentRecord, JsonlWriter, measured, write_csv  # noqa: E402
from regpos.zoo import default_zoo  # noqa: E402
from reference import N, SECTION_KS, SECTION_SAMPLES  # noqa: E402

GELFAND_C = 0.5


def _ascent_rng(seed, body_index, k):
    return np.random.default_rng([seed, body_index, k])


def section_radii_call(zoo, bases, seed, out):
    """The section_radii timed call: radii and cr_k for every zoo body and k."""
    radii = np.empty((len(zoo), len(SECTION_KS), SECTION_SAMPLES))
    rows = []
    with JsonlWriter(os.path.join(out, "section_radii.jsonl")) as w:
        for bi, (name, K) in enumerate(zoo):
            for ki, k in enumerate(SECTION_KS):
                rng = _ascent_rng(seed, bi, k)
                values = sp.section_out_radii(K, bases[f"k{k}"], rng=rng)
                g = regular.random_gelfand(K, k, SECTION_SAMPLES, GELFAND_C, rng=rng, values=values)
                radii[bi, ki] = values
                r, R = K.radii.r, K.radii.R
                w.write(ExperimentRecord(
                    experiment="section_radii", seed=seed, body=K.spec(),
                    params={"name": name, "k": k, "samples": SECTION_SAMPLES, "c": GELFAND_C,
                            "r_K": float(r), "R_K": float(R)},
                    measured={"cr_k": measured(g.value, ci=g.ci)},
                ))
                rows.append({"body": name, "k": k, "cr_k": g.value,
                             "ci_lo": g.ci[0], "ci_hi": g.ci[1]})
    write_csv(os.path.join(out, "section_radii_summary.csv"), rows, list(rows[0]))
    np.save(os.path.join(out, "radii.npy"), radii)
    return 0


def shortfall_probe(run_dir, seed, out):
    """B_1^32 hyperplane radii by the call section_radii times, at its default effort."""
    bases = np.load(os.path.join(run_dir, "probe_bases.npy"))
    values = sp.section_out_radii(regpos.cross_polytope(N), bases, rng=_ascent_rng(seed, 0, 2))
    np.save(os.path.join(out, "probe_radii.npy"), values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("qs", "section_radii", "regpos"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--rep-dir", required=True)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--probe", action="store_true", help="after set-up, run the shortfall probe")
    args = ap.parse_args()
    if args.trace and args.threads != 1:
        ap.error("tracing needs --threads 1")

    if args.workload == "section_radii":
        bases = dict(np.load(os.path.join(args.run_dir, "inputs.npz")))
        zoo = default_zoo(N)

        def call():
            return section_radii_call(zoo, bases, args.seed, args.rep_dir)
    else:
        # the CLI reads the config and builds its bodies inside the timed call
        argv = [args.workload, "--config", os.path.join(args.run_dir, "config.json"), "--seed", str(args.seed),
                "--threads", str(args.threads), "--out", args.rep_dir]

        def call():
            return cli.main(argv)

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    report = {"ready": time.monotonic()}
    if not args.setup_only:
        t0 = time.perf_counter()
        report["rc"] = call()
        report["wall_s"] = time.perf_counter() - t0
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            from spans import layer_metrics

            tracer.uninstall()
            tracer.write(os.path.join(args.rep_dir, "trace.jsonl"))
            report["layers"] = layer_metrics(tracer.spans)
    if args.probe:
        shortfall_probe(args.run_dir, args.seed, args.rep_dir)
    with open(os.path.join(args.rep_dir, "worker.json"), "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
