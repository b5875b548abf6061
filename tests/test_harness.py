"""Harness tests: record round trips, CLI subcommands, determinism of output
files, and a negative control for the duality suite."""

import filecmp
import importlib.util
import json
import os
import subprocess
import sys
import threading
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from regpos import bodies as bd
from regpos import experiments, gaussian, positions
from regpos.cli import _COMMANDS, main
from regpos.experiments import (
    binomial_ci,
    run_ell_positions,
    run_lowmstar_check,
    run_property_suites,
    run_qs_experiment,
    run_regular_positions,
    run_regularity_curve,
    run_section_tables,
)
from regpos.records import (
    ExperimentRecord,
    JsonlWriter,
    measured,
    record_from_json,
    record_to_json,
    write_csv,
)
from regpos.zoo import default_zoo, preset, random_h_polytope


# ----------------------------------------------------------------------
# records
# ----------------------------------------------------------------------


def test_record_round_trip_bit_exact():
    rec = ExperimentRecord(
        experiment="qs_trial",
        seed=7,
        body={"family": "weighted_lp", "p": 1, "weights": [1.0, 2.0]},
        params={"k": 4, "alpha": 0.7512345678901234, "trials": 10},
        measured={
            "d": measured(1.234567890123456789, se=0.01),
            "q": measured(2.0, ci=(1.9, 2.1)),
            "flag": measured(1.0, exact=True),
        },
        t_index=3,
    )
    line = record_to_json(rec)
    rec2 = record_from_json(line)
    assert record_to_json(rec2) == line
    assert rec2 == rec


def test_record_to_json_matches_asdict_dump():
    rec = ExperimentRecord(
        experiment="qs_summary",
        seed=3,
        body={"family": "weighted_lp", "p": 1.0, "weights": [1.0, 2.5], "shape": (2,)},
        params={"k_grid": [1, 2], "ci": (0.25, 0.75), "nested": {"a": [{"b": (1, 2.0)}], "c": None}},
        measured={"cr": [measured(1.5, ci=(1.0, 2.0)), measured(2.0, exact=True)], "ok": True},
        t_index=11,
    )
    assert record_to_json(rec) == json.dumps(asdict(rec), sort_keys=True, separators=(",", ":"))


def test_measured_requires_uncertainty():
    with pytest.raises(ValueError):
        measured(1.0)


def test_jsonl_writer_assigns_logical_timestamps(tmp_path):
    path = tmp_path / "x.jsonl"
    with JsonlWriter(path) as w:
        for i in range(3):
            w.write(ExperimentRecord("e", 0, {}, {}, {"v": measured(i, exact=True)}))
    lines = path.read_text().splitlines()
    assert [json.loads(l)["t_index"] for l in lines] == [0, 1, 2]


def test_write_csv_deterministic(tmp_path):
    rows = [{"a": 1.5, "b": "x"}, {"a": 2.0, "b": "y"}]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(p1, rows, ["a", "b"])
    write_csv(p2, rows, ["a", "b"])
    assert p1.read_bytes() == p2.read_bytes()


# ----------------------------------------------------------------------
# zoo
# ----------------------------------------------------------------------


def test_default_zoo_members():
    zoo = dict(default_zoo(8))
    assert set(zoo) == {"b1", "b2", "binf", "wlp1", "wlp1.5", "wlp3", "ell_cond4", "ell_cond100"}
    for K in zoo.values():
        assert K.dim == 8
    w = zoo["ell_cond100"]._eigvals
    assert w[-1] / w[0] == pytest.approx(100.0, rel=1e-9)
    assert preset("b1", 4).gauge([1, 1, 1, 1]) == 4.0
    with pytest.raises(ValueError):
        preset("nope", 4)


def test_random_h_polytope_bounded():
    K = random_h_polytope(np.random.default_rng(0), 4)
    assert K.rows.shape == (8, 4)
    assert K.gauge([1.0, 0.0, 0.0, 0.0]) > 0


# ----------------------------------------------------------------------
# drivers
# ----------------------------------------------------------------------


def test_run_ell_positions_rows(tmp_path):
    bodies = [("b1", bd.cross_polytope(4)), ("ell", bd.Ellipsoid(np.diag([2.0, 1.0, 1.0, 0.5])))]
    with JsonlWriter(tmp_path / "e.jsonl") as w:
        rows = run_ell_positions(bodies, samples=4000, seed=1, writer=w)
    assert len(rows) == 2 and all(r["converged"] for r in rows)
    assert all(r["product"] is not None for r in rows)
    assert len((tmp_path / "e.jsonl").read_text().splitlines()) == 2


def test_run_regular_positions_rows():
    bodies = [("b1", bd.cross_polytope(4))]
    rows = run_regular_positions(bodies, alpha=0.75, samples=4000, seed=1)
    assert rows[0]["converged"] and rows[0]["certificate"] < 1e-3


def test_run_section_tables_rows():
    rows = run_section_tables([("b2", bd.ball(8))], samples=120, seed=0)
    assert {r["k"] for r in rows} == {1, 2, 4}
    assert all(abs(r["cr_k"] - 1.0) < 1e-9 for r in rows)


def test_run_qs_small():
    s = run_qs_experiment(bd.cross_polytope(16), None, 4, trials=60, seed=2,
                          fp_samples=4000, report_samples=120)
    assert s.trials == 60
    assert s.fp_converged
    assert all(v >= 1.0 for v in (o.d_section_of_projection for o in s.outcomes))
    assert all(v >= 1.0 for v in (o.d_projection_of_section for o in s.outcomes))
    assert 0.0 <= s.exceed_sop <= 1.0
    # the threshold form Rbar^2 uses the measured constant
    assert s.threshold == pytest.approx((s.P_emp * (16 / 4) ** s.alpha) ** 2, rel=1e-12)


def test_qs_trial_radii_are_lower_bounds(tmp_path):
    with JsonlWriter(tmp_path / "qs.jsonl") as w:
        run_qs_experiment(bd.cross_polytope(8), None, 2, trials=10, seed=2, fp_samples=2000,
                          report_samples=100, writer=w)
    *trials, summary = [json.loads(line) for line in (tmp_path / "qs.jsonl").read_text().splitlines()]
    assert len(trials) == 10 and all(r["experiment"] == "qs_trial" for r in trials)
    for rec in trials:
        for key in ("d_section_of_projection", "d_projection_of_section", "section_radius",
                    "polar_section_radius"):
            assert rec["measured"][key]["bound"] == "lower" and "exact" not in rec["measured"][key]
    # P_emp and the threshold are built from the same lower-bound radii
    assert summary["experiment"] == "qs_summary"
    for key in ("P_emp", "threshold"):
        assert summary["measured"][key]["bound"] == "lower" and "exact" not in summary["measured"][key]


def test_measured_bound_marker():
    assert measured(2.0, lower_bound=True) == {"value": 2.0, "bound": "lower"}


def test_run_qs_needs_ten_trials():
    with pytest.raises(ValueError, match="10 trials"):
        run_qs_experiment(bd.cross_polytope(8), None, 2, trials=9)


def test_run_qs_ball_all_distances_one_up_to_saa():
    # in the exact position of the ball every distance is 1; the SAA position
    # is a diagonal ellipsoid with eccentricity rho -> 1 as M grows, and every
    # quotient-of-section distance is sandwiched in [1, rho]
    ball = bd.WeightedLp(2.0, np.ones(16))
    s = run_qs_experiment(ball, None, 4, trials=40, seed=3,
                          fp_samples=20000, report_samples=120)
    from regpos.regular import find_regular_position

    fp = find_regular_position(ball, s.alpha, seed=3, samples=20000)
    rho = float(fp.body.scales.max() / fp.body.scales.min())
    assert rho <= 1.15  # SAA band at M = 20000
    for o in s.outcomes:
        assert 1.0 - 1e-9 <= o.d_section_of_projection <= rho + 1e-6
        assert 1.0 - 1e-9 <= o.d_projection_of_section <= rho + 1e-6


def test_qs_distances_two_routes_agree_on_ellipsoids():
    # the same quantities through the exact eigen route (Ellipsoid family)
    # and through the generic multistart route (same body as a weighted l_2)
    from regpos import subspaces as sp
    from regpos._ascent import _extremize, ratio_extremum_many

    n, k, flags = 12, 3, 12
    w = np.linspace(1.0, 2.5, n)
    exact_body = bd.Ellipsoid(np.diag(w**2))
    generic_body = bd.WeightedLp(2.0, w)
    rng = np.random.default_rng(8)
    m1, m2 = n - k + 1, n - 2 * k + 2
    Q = sp.haar_grassmannian_batch(rng, n, m1, flags)
    D = Q[:, :, m2:]
    Dperp = np.linalg.qr(D, mode="complete")[0][:, :, k - 1 :]
    Pts = np.swapaxes(Q[:, :, :m2], 1, 2)
    for Zs in (Dperp, Q):
        a = ratio_extremum_many(exact_body, Zs, Ps=Pts, mode="max")
        b = _extremize(generic_body, Zs, Pts, "max", np.random.default_rng(1), (16, 120, 96, 120))[0]
        assert np.abs(a - b).max() <= 1e-6 * np.abs(a).max()


def test_curve_p_emp_decreasing_in_alpha():
    out = run_regularity_curve(bd.cross_polytope(16), alphas=(0.6, 0.75, 1.0),
                               samples=400, seed=0, fp_samples=10000)
    p = [pt["P_emp"] for pt in out["curve"]]
    assert p[0] > p[1] - 0.02 and p[1] > p[2] - 0.02
    assert p[0] > p[2]


def test_run_lowmstar_structure():
    out = run_lowmstar_check(n_list=(16,), samples=150, seed=0, ell_samples=4000)
    assert set(k[0] for k in out["C_emp"]) == set(n for n, _ in default_zoo(16))
    assert out["C_emp_max"] <= 3.0
    ks = sorted({r["k"] for r in out["rows"]})
    assert ks == [1, 2, 4, 8]


def test_run_curve_structure(tmp_path):
    with JsonlWriter(tmp_path / "curve.jsonl") as w:
        out = run_regularity_curve(bd.cross_polytope(8), alphas=(0.75, 1.5), samples=120,
                                   seed=0, fp_samples=4000, writer=w)
    assert [pt["alpha"] for pt in out["curve"]] == [0.75, 1.5]
    assert all(pt["fp_converged"] for pt in out["curve"])
    # P_emp is a quantile of lower-bound section radii
    recs = [json.loads(line) for line in (tmp_path / "curve.jsonl").read_text().splitlines()]
    assert len(recs) == 2
    for rec in recs:
        assert rec["measured"]["P_emp"]["bound"] == "lower" and "exact" not in rec["measured"]["P_emp"]
    # ball input gives a flat curve at 1
    flat = run_regularity_curve(bd.WeightedLp(2.0, np.ones(8)), alphas=(0.75, 1.5),
                                samples=120, seed=0, fp_samples=4000)
    for pt in flat["curve"]:
        assert pt["P_emp"] <= 1.0 + 1e-9


def test_binomial_ci():
    lo, hi = binomial_ci(0.1, 100)
    assert 0.0 <= lo < 0.1 < hi <= 1.0


# ----------------------------------------------------------------------
# negative control: a corrupted polar must fail the duality comparator
# ----------------------------------------------------------------------


def test_corrupted_polar_fails_duality_suite():
    K = bd.WeightedLp.from_weights(1.0, [1.0, 2.0, 3.0])
    corrupted = bd.WeightedLp(K.conjugate_p, K.scales)  # reciprocals not taken
    rng = np.random.default_rng(0)
    Y = rng.standard_normal((500, 3))
    resid = np.abs(K.support(Y) - corrupted.gauge(Y)).max()
    assert resid > 1e-3  # the suite's 1e-9 comparator would flag this
    healthy = np.abs(K.support(Y) - K.polar().gauge(Y)).max()
    assert healthy <= 1e-9


def test_property_suite_runner_reports_failures():
    results = run_property_suites(seed=0, names=["support_duality"])
    assert len(results) == 1 and results[0].passed


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def test_cli_config_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["sections", "--config", str(bad)]) == 2
    listcfg = tmp_path / "list.json"
    listcfg.write_text("[1, 2]")
    assert main(["sections", "--config", str(listcfg)]) == 2
    badbody = tmp_path / "badbody.json"
    badbody.write_text(json.dumps({"bodies": [{"family": "martian"}]}))
    assert main(["sections", "--config", str(badbody)]) == 2


def test_cli_bad_config_values_exit_2(tmp_path, capsys):
    # a value of the wrong type, and a qs flag parameter beyond n/2
    for cmd, cfg in (("sections", {"samples": "abc"}),
                     ("qs", {"n": 8, "k": 5}),
                     ("qs", {"body": {"preset": "b1", "dim": "x"}})):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main([cmd, "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err


_RUNS = ["run_property_suites", "run_ell_positions", "run_regular_positions", "run_section_tables",
         "run_lowmstar_check", "run_qs_experiment", "run_regularity_curve"]


@pytest.fixture
def no_runs(monkeypatch):
    """Any experiment run fails the test: config errors must come first."""
    for name in _RUNS:
        monkeypatch.setattr(experiments, name, lambda *a, **k: pytest.fail("ran on a bad config"))


_POLYTOPE = {"family": "polytope_h", "rows": np.vstack([np.eye(4), np.ones((1, 4))]).tolist()}

_BAD_CONFIGS = [
    ("sections", {"bodies": 5}),
    ("props", {"names": 5}),
    ("sections", {"n": -3}),
    ("qs", {"n": -3}),
    ("sections", {"k_grid": [0]}),
    ("sections", {"samples": 5}),
    ("regpos", {"alpha": 0.4}),
    ("qs", {"alpha": 0.4}),
    ("qs", {"trials": 0}),
    # the q_exp level 1 - max(e^(-ck), 10/trials) needs trials >= 10
    ("qs", {"trials": 5}),
    # the curve slopes need two distinct k: n = 3 has the default grid [1]
    ("curve", {"n": 3}),
    ("curve", {"k_grid": [4]}),
    ("curve", {"k_grid": [2, 2]}),
    # the fixed point positions only weighted l_p balls and diagonal ellipsoids
    ("qs", {"body": _POLYTOPE, "k": 2}),
    ("curve", {"body": _POLYTOPE}),
    ("regpos", {"bodies": [{"preset": "b1", "dim": 4}, _POLYTOPE]}),
]


@pytest.mark.parametrize("cmd, cfg", _BAD_CONFIGS, ids=[f"{c}-{json.dumps(g)}" for c, g in _BAD_CONFIGS])
def test_cli_config_errors_exit_2_before_any_run(cmd, cfg, tmp_path, capsys, no_runs):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main([cmd, "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


_NOT_LIST = st.one_of(st.integers(), st.text(max_size=3), st.just([]),
                      st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
_NOT_INT = st.one_of(st.text(max_size=3), st.booleans(), st.floats(), st.none(), _NOT_LIST.filter(
    lambda v: not isinstance(v, int)))
_NOT_NUM = st.one_of(st.text(max_size=3), st.booleans(), st.none(), st.just([1.0]),
                     st.sampled_from([float("nan"), float("inf"), -float("inf")]))


def _ints(most=None, least=None):
    """Invalid integer values: wrong types, and integers outside (most, least)."""
    bad = [_NOT_INT]
    if most is not None:
        bad.append(st.integers(max_value=most))
    if least is not None:
        bad.append(st.integers(min_value=least))
    return st.one_of(bad)


def _nums(most, least=None):
    bad = [_NOT_NUM, st.floats(max_value=most)]
    if least is not None:
        bad.append(st.floats(min_value=least, exclude_min=True))
    return st.one_of(bad)


def _lists(bad_item):
    return st.one_of(_NOT_LIST, st.lists(bad_item, min_size=1, max_size=3))


_ALPHA = _nums(0.5, 100.0)
_BODY = st.one_of(st.integers(), st.text(max_size=3), st.lists(st.integers(), max_size=2),
                  st.just({"preset": "nope"}), st.just({"family": "weighted_lp", "p": 0.5, "weights": [1]}),
                  st.just({"preset": "b1", "dim": 0}))
# command -> {key: invalid values}; the base configs default to n = 16 (32 for qs/curve)
_INVALID = {
    "props": {"names": st.one_of(st.integers(), st.text(max_size=3), st.lists(st.text(max_size=3), min_size=1))},
    "ellpos": {"n": _ints(1), "bodies": _lists(_BODY), "samples": _ints(1), "tol": _nums(0.0)},
    "regpos": {"n": _ints(1), "bodies": _lists(_BODY), "samples": _ints(1), "alpha": _ALPHA},
    "sections": {"n": _ints(1), "bodies": _lists(_BODY), "samples": _ints(99), "c": _nums(0.0),
                 "k_grid": _lists(_ints(0, 17))},
    "lowmstar": {"n_list": _lists(_ints(1)), "samples": _ints(99), "c": _nums(0.0)},
    "qs": {"n": _ints(1), "body": _BODY, "k": _ints(0, 17), "alpha": _ALPHA.filter(lambda a: a is not None),
           "trials": _ints(9), "fp_samples": _ints(1), "report_samples": _ints(99), "c": _nums(0.0)},
    "curve": {"n": _ints(1), "body": _BODY, "alphas": _lists(_ALPHA), "samples": _ints(99),
              "fp_samples": _ints(1), "c": _nums(0.0), "k_grid": _lists(_ints(0, 33))},
}
_CASES = [(cmd, key, bad) for cmd, keys in _INVALID.items() for key, bad in keys.items()]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(_CASES).flatmap(lambda c: st.tuples(st.just(c[0]), st.just(c[1]), c[2])))
def test_cli_invalid_config_values_exit_2(tmp_path, capsys, no_runs, case):
    cmd, key, value = case
    if key == "names" and isinstance(value, list):
        value = [name + "?" for name in value]   # no suite name ends in "?"
    path = tmp_path / "c.json"
    path.write_text(json.dumps({key: value}))
    assert main([cmd, "--config", str(path)]) == 2, (cmd, key, value)
    assert "config error" in capsys.readouterr().err


def test_cli_regpos_outputs_identical_across_threads(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "bodies": [{"preset": "b1", "dim": 8}, {"preset": "wlp1.5", "dim": 8}],
        "samples": 4000,
    }))
    outs = []
    for threads in ("1", "2"):
        out = str(tmp_path / f"t{threads}")
        assert main(["regpos", "--config", str(cfg), "--seed", "5", "--threads", threads,
                     "--out", out]) == 0
        outs.append(out)
    files = sorted(os.listdir(outs[0]))
    assert files == ["regpos.jsonl", "regpos_summary.csv"]
    for f in files:
        assert filecmp.cmp(os.path.join(outs[0], f), os.path.join(outs[1], f), shallow=False), f


def test_cli_regpos_starts_no_threads(tmp_path):
    # 20000 samples make two Gaussian blocks; --threads 2 still sums them on the calling thread
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"bodies": [{"preset": "wlp1.5", "dim": 6}], "samples": 20000}))
    assert main(["regpos", "--config", str(cfg), "--seed", "5", "--threads", "2"]) == 0
    assert [t.name for t in threading.enumerate() if t.name.startswith("ThreadPoolExecutor")] == []


@pytest.mark.parametrize("cmd", sorted(_COMMANDS))
def test_cli_negative_seed_exit_2_before_any_run(cmd, capsys, no_runs):
    assert main([cmd, "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "--seed" in err


def test_import_loads_no_scipy():
    # scipy is imported only by the routes that call it (LPs, Powell, quadrature)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = ("import sys, regpos, regpos.cli\n"
              "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n")
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"


def test_perfbench_tracer_binds_its_names():
    # perfbench/spans.py wraps regpos names from outside the package: a rename breaks --trace 1
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    block, call = gaussian.GaussianSample.block, positions._DiagObjective.__call__
    tracer = spans.Tracer()
    tracer.install()
    assert gaussian.GaussianSample.block is not block
    tracer.uninstall()
    assert gaussian.GaussianSample.block is block and positions._DiagObjective.__call__ is call


def test_cli_props_subset_green(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"names": ["support_duality", "polar_involution"]}))
    csvs = [tmp_path / o / "props_summary.csv" for o in ("o1", "o2")]
    for path in csvs:
        assert main(["props", "--config", str(cfg), "--seed", "1", "--out", str(path.parent)]) == 0
        assert capsys.readouterr().out.count("PASS") == 2
    # wall-clock seconds go to stdout only: the summary is byte-identical across runs
    assert csvs[0].read_text().splitlines()[0] == "name,passed,detail"
    assert filecmp.cmp(csvs[0], csvs[1], shallow=False)


def test_cli_sections_deterministic_outputs(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "bodies": [{"preset": "b1", "dim": 8}, {"preset": "ell_cond4", "dim": 8}],
        "samples": 120,
    }))
    d1, d2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert main(["sections", "--config", str(cfg), "--seed", "9", "--out", d1]) == 0
    assert main(["sections", "--config", str(cfg), "--seed", "9", "--out", d2]) == 0
    files = sorted(os.listdir(d1))
    assert files == sorted(os.listdir(d2)) and files
    for f in files:
        assert filecmp.cmp(os.path.join(d1, f), os.path.join(d2, f), shallow=False), f
    # the least sampled radius is a minimum of lower-bound radii
    with open(os.path.join(d1, "sections.jsonl")) as fh:
        markers = [json.loads(line)["measured"]["c_k_upper"] for line in fh]
    assert markers and all(set(m) == {"value", "bound"} and m["bound"] == "lower" for m in markers)
    # a different seed changes the records
    d3 = str(tmp_path / "r3")
    assert main(["sections", "--config", str(cfg), "--seed", "10", "--out", d3]) == 0
    assert not filecmp.cmp(os.path.join(d1, "sections.jsonl"), os.path.join(d3, "sections.jsonl"),
                           shallow=False)


def test_cli_ellpos_runs(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"bodies": [{"preset": "b2", "dim": 4}], "samples": 2000}))
    assert main(["ellpos", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    lines = (tmp_path / "o" / "ellpos.jsonl").read_text().splitlines()
    rec = json.loads(lines[0])
    assert rec["experiment"] == "ell_position"
    assert "se" in rec["measured"]["product"]


def test_cli_qs_runs(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "body": {"preset": "b1", "dim": 16}, "k": 4, "trials": 50,
        "fp_samples": 3000, "report_samples": 120,
    }))
    assert main(["qs", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "qs_summary.csv").exists()
    lines = (tmp_path / "o" / "qs.jsonl").read_text().splitlines()
    assert len(lines) == 51  # 50 trials + summary
