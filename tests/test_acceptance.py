"""Acceptance criteria, one test per criterion.

Each test prints one `ACCEPTANCE <n>: PASS/FAIL` line (run with `-s` to see
them live) and enforces the stated tolerances and runtime budgets.
"""

import filecmp
import json
import os
import time

import numpy as np

from regpos import bodies as bd
from regpos.cli import main as cli_main
from regpos.experiments import run_lowmstar_check, run_property_suites, run_qs_experiment
from regpos.gaussian import GaussianSample
from regpos.positions import solve_ell_position
from regpos.regular import ell_position_certificate, find_regular_position, regularity_report


def _finish(num, ok, detail, t0=None, budget=None):
    elapsed = 0.0 if t0 is None else time.perf_counter() - t0
    in_budget = budget is None or elapsed <= budget
    status = "PASS" if (ok and in_budget) else "FAIL"
    line = f"ACCEPTANCE {num}: {status}"
    if budget is not None:
        line += f" ({elapsed:.0f}s of {budget:.0f}s budget)"
    print(f"{line}  {detail}")
    assert ok, detail
    if budget is not None:
        assert in_budget, f"runtime {elapsed:.0f}s exceeds the {budget:.0f}s budget"


def test_criterion_1_property_suites_green():
    t0 = time.perf_counter()
    results = run_property_suites(seed=2024)
    failed = [r for r in results if not r.passed]
    detail = (
        f"{len(results)} suites green"
        if not failed
        else "failed: " + "; ".join(f"{r.name} ({r.detail})" for r in failed)
    )
    _finish(1, not failed, detail, t0, budget=120.0)


def test_criterion_2_ellipsoid_oracle_equivalence(monkeypatch):
    t0 = time.perf_counter()
    # an Ellipsoid takes the AM-GM closed form inside solve_ell_position; the
    # same ellipsoid as a direct LinearImage of the ball goes through _lbfgs,
    # which gives the closed form an independent reference
    from regpos import positions

    lbfgs_runs = []
    lbfgs = positions._lbfgs
    monkeypatch.setattr(positions, "_lbfgs", lambda *a, **k: lbfgs_runs.append(1) or lbfgs(*a, **k))
    rng = np.random.default_rng(271828)
    samples = {}
    mom2 = {}
    worst_solver = 0.0
    worst_lbfgs = 0.0
    worst_fixed = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 17))
        if n not in samples:
            samples[n] = GaussianSample(909 + n, 20000, n)
            mom2[n] = (samples[n].vectors() ** 2).mean(axis=0)
        v = np.exp(rng.uniform(-1.5, 1.5, size=n))
        K = bd.Ellipsoid(np.diag(v))
        # solver vs the AM-GM closed form of the SAA objective
        t_closed = np.sqrt(v * mom2[n])
        t_closed /= np.exp(np.log(t_closed).mean())
        res = solve_ell_position(K, samples[n], tol=1e-9)
        worst_solver = max(
            worst_solver, float(np.abs(np.log(np.diag(res.T.matrix)) - np.log(t_closed)).max())
        )
        runs = len(lbfgs_runs)
        res = solve_ell_position(bd.LinearImage(np.diag(v**-0.5), bd.ball(n)), samples[n], tol=1e-9)
        assert len(lbfgs_runs) > runs, "the LinearImage solve never reached _lbfgs"
        worst_lbfgs = max(
            worst_lbfgs, float(np.abs(np.log(np.diag(res.T.matrix)) - np.log(t_closed)).max())
        )
        # fixed point vs the hand-derived diag(v^(1/2))/geomean (SAA moments)
        alpha = 1.0 if trial % 2 == 0 else 0.75
        fp = find_regular_position(K, alpha, sample=samples[n], tol=1e-6)
        pred = np.sqrt(v) * mom2[n] ** (1.0 / (2.0 * (1.0 - fp.theta)))
        pred /= np.exp(np.log(pred).mean())
        worst_fixed = max(worst_fixed, float(np.abs(fp.T.log_diag() - np.log(pred)).max()))
    ok = worst_solver <= 1e-4 and worst_lbfgs <= 1e-4 and worst_fixed <= 1e-4
    _finish(
        2, ok,
        f"100 ellipsoids: solver log-gap {worst_solver:.2e}, L-BFGS log-gap {worst_lbfgs:.2e}, "
        f"fixed-point log-gap {worst_fixed:.2e} (tolerance 1e-4)",
        t0, budget=300.0,
    )


def test_criterion_3_fixed_point_certificate():
    t0 = time.perf_counter()
    bodies = {
        "b1_16": bd.cross_polytope(16),
        "wlp1.5_16": bd.WeightedLp.from_weights(1.5, 1.0 + np.arange(16) / 15.0),
    }
    details = []
    ok = True
    for name, K in bodies.items():
        for alpha in (0.75, 1.0):
            converged = 0
            cert_ok = 0
            for seed in range(10):
                fp = find_regular_position(
                    K, alpha, seed=7000 + seed, samples=20000, tol=1e-4
                )
                if fp.converged and fp.residual <= 1e-4:
                    converged += 1
                    if ell_position_certificate(fp, K) <= 1e-3:
                        cert_ok += 1
            details.append(f"{name}@a={alpha}: {converged}/10 converged, {cert_ok} certified")
            ok = ok and converged >= 9 and cert_ok == converged
    _finish(3, ok, "; ".join(details), t0)


def test_criterion_4_low_mstar_constant():
    t0 = time.perf_counter()
    out = run_lowmstar_check(n_list=(16, 32, 64), samples=1000, c=0.5, seed=31)
    worst = max(out["C_emp"].items(), key=lambda kv: kv[1])
    ok = out["C_emp_max"] <= 3.0
    _finish(
        4, ok,
        f"max C_emp = {out['C_emp_max']:.3f} at {worst[0]} (bound 3, zoo at n in 16/32/64, "
        f"1000 subspaces per k)",
        t0, budget=600.0,
    )


def test_criterion_5_regularity_of_new_position():
    t0 = time.perf_counter()
    K = bd.cross_polytope(32)
    alpha = 0.75
    slopes_ok = True
    p_emps = []
    slope_log = []
    for seed in range(5):
        fp = find_regular_position(K, alpha, seed=500 + seed, samples=20000)
        rep = regularity_report(fp.body, alpha, samples=600, seed=900 + seed)
        for which in ("body", "polar"):
            s = rep.slopes[which]
            slope_log.append(f"{which}@{seed}:{s:.3f}")
            if not (0.0 <= s <= alpha + 0.2):
                slopes_ok = False
        p_emps.append(rep.P_emp)
    p = np.array(p_emps)
    spread_ok = bool(np.all(np.abs(p - p.mean()) <= 0.15 * p.mean()))
    detail = (
        f"slopes in [0, {alpha + 0.2}]: {slopes_ok} ({', '.join(slope_log)}); "
        f"P_emp = {np.round(p, 3).tolist()} spread {(p.max() - p.min()) / p.mean():.2%}"
    )
    _finish(5, slopes_ok and spread_ok, detail)


def test_criterion_6_random_qs_regression():
    t0 = time.perf_counter()
    c = 0.5
    ok = True
    details = []
    for n in (32, 64):
        for k in (4, 8):
            d90 = {}
            for si, seed in enumerate((111, 222)):
                s = run_qs_experiment(
                    bd.cross_polytope(n), None, k, trials=500, seed=seed,
                    c=c, fp_samples=20000, report_samples=400,
                )
                d90[si] = s.quantiles["q90"]["d_section_of_projection"]
                bound = 2.0 * np.exp(-c * k)
                slack = 1.96 * np.sqrt(bound * (1 - bound) / s.trials)
                exceed = max(s.exceed_sop, s.exceed_pos)
                if not (np.isfinite(d90[si]) and exceed <= bound + slack):
                    ok = False
                    details.append(f"n={n},k={k},seed{si}: exceed {exceed:.3f} > {bound + slack:.3f}")
            rel = abs(d90[0] - d90[1]) / (0.5 * (d90[0] + d90[1]))
            if rel > 0.20:
                ok = False
            details.append(f"n={n},k={k}: d90 = {d90[0]:.3f}/{d90[1]:.3f} (gap {rel:.1%})")
    _finish(6, ok, "; ".join(details), t0, budget=1200.0)


def test_criterion_7_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "bodies": [{"preset": "b1", "dim": 8}, {"preset": "ell_cond100", "dim": 8}],
        "samples": 120,
    }))
    qs_cfg = tmp_path / "qs.json"
    qs_cfg.write_text(json.dumps({
        "body": {"preset": "b1", "dim": 16}, "k": 4, "trials": 40,
        "fp_samples": 3000, "report_samples": 120,
    }))
    pairs = []
    for tag, args in (
        ("sections", ["sections", "--config", str(cfg), "--seed", "5", "--threads", "2"]),
        ("qs", ["qs", "--config", str(qs_cfg), "--seed", "6", "--threads", "2"]),
    ):
        d1, d2 = str(tmp_path / f"{tag}_a"), str(tmp_path / f"{tag}_b")
        assert cli_main(args + ["--out", d1]) == 0
        assert cli_main(args + ["--out", d2]) == 0
        for f in sorted(os.listdir(d1)):
            pairs.append((tag, f, filecmp.cmp(os.path.join(d1, f), os.path.join(d2, f),
                                              shallow=False)))
    bad = [(t, f) for t, f, same in pairs if not same]
    _finish(
        7, not bad,
        f"{len(pairs)} output files byte-identical across re-runs" if not bad
        else f"differing files: {bad}",
        t0,
    )
