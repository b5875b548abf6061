"""Batches of section surveys (_ascent.survey, _ascent.run_surveys): parts
dealt to forked processes give the same bytes at every worker count, redraw
exactly the Gaussians of the serial path, hold no more than a part's draws
in the calling process, and leave no child behind."""

from __future__ import annotations

import copy
import json
import os
import tracemalloc

import numpy as np
import pytest

from regpos import _ascent
from regpos import bodies as bd
from regpos import experiments as ex
from regpos import regular
from regpos import subspaces as sp
from regpos.records import ExperimentRecord, JsonlWriter

N, S = 8, 7


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _cases():
    rng = np.random.default_rng(31)
    s = np.linspace(1.0, 2.0, N)
    P = rng.standard_normal((S, 3, N))
    codim2 = sp.haar_grassmannian_batch(rng, N, N - 2, S)
    codim5 = sp.haar_grassmannian_batch(rng, N, N - 5, S)
    ell = bd.Ellipsoid(np.diag(s**2))
    wlp = bd.WeightedLp(1.5, s)
    cases = {f"eigen-{tag}": (ell, codim5, Ps, "max") for tag, Ps in
             (("none", None), ("matrix", P), ("body", bd.Ellipsoid(np.diag(s))))}
    for body in (bd.WeightedLp(1.0, s), bd.WeightedLp(np.inf, s)):
        for tag, Ps in (("none", None), ("matrix", P)):
            cases[f"vertex-p{body.p}-{tag}"] = (body, codim2, Ps, "max")
    for mode in ("max", "min"):
        for tag, Ps in (("none", None), ("matrix", P), ("body", bd.cube(N))):
            cases[f"ascent-{mode}-{tag}"] = (wlp, codim5, Ps, mode)
    return cases


CASES = _cases()


@pytest.mark.parametrize("case", sorted(CASES))
def test_extrema_identical_across_worker_counts(case, monkeypatch):
    body, Zs, Ps, mode = CASES[case]
    outs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(_ascent, "_WORKERS", workers)
        outs.append(_ascent.ratio_extremum_many(body, Zs, Ps, mode, np.random.default_rng(5)))
    assert outs[0].shape == (S,)
    for out in outs[1:]:
        assert out.tobytes() == outs[0].tobytes()
    _assert_no_children()


def test_extremizers_identical_across_worker_counts(monkeypatch):
    K = bd.WeightedLp(3.0, np.linspace(1.0, 2.0, N))
    Zs = sp.haar_grassmannian_batch(np.random.default_rng(32), N, N - 3, S)
    outs = []
    for workers in (1, 3):
        monkeypatch.setattr(_ascent, "_WORKERS", workers)
        outs.append(_ascent._extremize(K, Zs, None, "max", np.random.default_rng(6), _ascent.SURVEY))
    for a, b in zip(*outs):
        assert a.tobytes() == b.tobytes()


def test_a_batch_identical_to_its_surveys_one_by_one(monkeypatch):
    # four routes in one batch: the same bytes as each survey alone, serially
    # and whole, whatever the processes and the slabs within a part
    jobs = [CASES[c] for c in ("ascent-max-matrix", "vertex-pinf-none", "eigen-body", "ascent-min-body")]
    alone = [_ascent.ratio_extremum_many(body, Zs, Ps, mode, np.random.default_rng(i))
             for i, (body, Zs, Ps, mode) in enumerate(jobs)]
    for workers, slab in ((1, 2), (2, 1), (3, _ascent._SLAB)):
        monkeypatch.setattr(_ascent, "_WORKERS", workers)
        monkeypatch.setattr(_ascent, "_SLAB", slab)
        batch = _ascent.run_surveys([_ascent.survey(body, Zs, Ps, mode, np.random.default_rng(i))
                                     for i, (body, Zs, Ps, mode) in enumerate(jobs)])
        assert [b.tobytes() for b in batch] == [a.tobytes() for a in alone]
    _assert_no_children()


def test_worker_count_never_exceeds_the_usable_cpus(monkeypatch):
    cpus = len(os.sched_getaffinity(0))
    for route in _ascent._MIN_PART:
        for n in (8, 16, 32, 64):
            least = int(_ascent._least(route, n))
            for count in (0, 1, least, 2 * least, 10_000):
                assert 1 <= _ascent._parts(count, route, n) <= max(1, min(cpus, count))
            assert _ascent._parts(least * 2 - 1, route, n) == 1
    # the eigen route and the l_1 search keep mid-sized stacks whole at n = 16
    assert _ascent._parts(1023, "eigen", 16) == _ascent._parts(1023, "vertex_search", 16) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert _ascent._parts(10_000, "ascent", 32) == 1
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(_ascent, "_WORKERS", 3)
    assert _ascent._parts(10_000, "ascent", 32) == 1


@pytest.mark.parametrize("P", [1, 2, 3, 6])
def test_run_deals_every_part_once(P):
    # process c solves order[c::P], c = 0 being this one; 6 processes for 5
    # parts are cut to 5, one part each
    order = np.random.default_rng(43).permutation(5).tolist()
    done = _ascent._run(lambda i: (i, os.getpid()), order, P)
    assert sorted(done) == list(range(5)) and all(done[i][0] == i for i in done)
    P = min(P, len(order))
    pids = [{done[i][1] for i in order[c::P]} for c in range(P)]
    assert pids[0] == {os.getpid()} and all(len(p) == 1 for p in pids)
    assert len(set.union(*pids)) == P
    _assert_no_children()


def _batch(seed=40):
    """Three ascent surveys on Haar recipes, three parts each at 3 workers."""
    rng = np.random.default_rng(seed)
    K = bd.WeightedLp(1.5, np.linspace(1.0, 2.0, N))
    return [_ascent.survey(K, _ascent.Haar(rng, N, N - 4, 9), None, "max", rng) for _ in range(3)]


def test_a_batch_forks_one_child_per_further_worker(monkeypatch):
    monkeypatch.setattr(_ascent, "_WORKERS", 3)
    forks, fork = [], os.fork

    def counting():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    assert [v.shape for v in _ascent.run_surveys(_batch())] == [(9,)] * 3
    assert len(forks) == 2
    _assert_no_children()


@pytest.mark.parametrize("where", ["child", "parent"])
def test_a_failing_part_raises_in_the_caller_and_leaves_no_child(where, monkeypatch):
    # the middle survey of a batch raises in the children or in this process:
    # its three parts are dealt one to each process
    monkeypatch.setattr(_ascent, "_WORKERS", 3)
    assert [v.shape for v in _ascent.run_surveys(_batch())] == [(9,)] * 3
    _assert_no_children()
    jobs = _batch()
    middle, caller, solve = jobs[1], os.getpid(), _ascent._solve

    def solve_or_fail(job, *part):
        if job is middle and (os.getpid() == caller) == (where == "parent"):
            raise ValueError(f"bad sections in the survey of {job.shape[0]}")
        return solve(job, *part)

    monkeypatch.setattr(_ascent, "_solve", solve_or_fail)
    with pytest.raises(ValueError, match=r"^bad sections in the survey of 9$"):
        _ascent.run_surveys(jobs)
    _assert_no_children()


def test_children_never_flush_inherited_buffers(tmp_path, monkeypatch):
    # a record buffered before a batch is written once, by this process
    monkeypatch.setattr(_ascent, "_WORKERS", 3)
    path = tmp_path / "r.jsonl"
    K = bd.WeightedLp(1.5, np.linspace(1.0, 2.0, N))
    with JsonlWriter(str(path)) as w:
        w.write(ExperimentRecord(experiment="split", seed=0, body=K.spec(), params={}, measured={}))
        _ascent.run_surveys(_batch())
    lines = path.read_text().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["experiment"] == "split"
    _assert_no_children()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_haar_recipe_parts_redraw_the_batch_bases(workers, monkeypatch):
    monkeypatch.setattr(_ascent, "_WORKERS", workers)
    rng, ref = np.random.default_rng(42), np.random.default_rng(42)
    job = _ascent.survey(bd.cube(N), _ascent.Haar(rng, N, N - 5, 11), None, "max", rng)
    assert len(job.parts) == workers and job.bases is None
    parts = [_ascent._haar(_ascent._generator(h).standard_normal((b - a, N, N - 5))) for a, b, h, _ in job.parts]
    assert np.concatenate(parts).tobytes() == sp.haar_grassmannian_batch(ref, N, N - 5, 11).tobytes()
    # then the probes of all 11 sections, drawn from the same generator
    ref.standard_normal((11, _ascent.SURVEY[2], N - 5))
    assert rng.bit_generator.state == ref.bit_generator.state


def _serial_draws(rng, K, k, samples):
    """What the unbatched path draws from rng for one random_gelfand survey."""
    if k > 1:
        sp.haar_grassmannian_batch(rng, K.dim, K.dim - k + 1, samples)
        rng.integers(2**63)


@pytest.mark.parametrize("caller", ["report", "sections"])
def test_planning_leaves_each_generator_where_the_serial_path_did(caller, monkeypatch):
    checked = []
    module = regular if caller == "report" else ex
    plan = module._radius_survey

    def checking(K, k, samples, rng):
        before = copy.deepcopy(rng)
        out = plan(K, k, samples, rng)
        _serial_draws(before, K, k, samples)
        checked.append(before.bit_generator.state == rng.bit_generator.state)
        return out

    monkeypatch.setattr(module, "_radius_survey", checking)
    K = bd.cross_polytope(16)
    if caller == "report":
        regular.regularity_report(K, 0.75, samples=100, seed=3)
    else:
        ex.run_section_tables([("b1", K), ("wlp1.5", bd.WeightedLp(1.5, np.linspace(1.0, 2.0, 16)))],
                              samples=100, seed=3)
    assert len(checked) == 8 and all(checked)


def test_qs_planning_leaves_the_flag_generator_where_the_serial_path_did(monkeypatch):
    flag_rngs = []
    plan = sp.section_survey
    monkeypatch.setattr(sp, "section_survey",
                        lambda K, bases, rng, Ps=None: flag_rngs.append(rng) or plan(K, bases, rng, Ps))
    n, k, trials, seed = 16, 2, 30, 4
    ex.run_qs_experiment(bd.cross_polytope(n), 0.75, k, trials=trials, seed=seed, fp_samples=2000,
                         report_samples=100)
    assert len(flag_rngs) == 6 and all(r is flag_rngs[0] for r in flag_rngs)
    ref = ex._rng(seed, 3)
    sp.haar_flag_batch(ref, n, k, trials)
    for _ in range(6):
        ref.integers(2**63)
    assert flag_rngs[0].bit_generator.state == ref.bit_generator.state


def test_report_batch_holds_no_full_draw_in_this_process(monkeypatch):
    # the parts redraw their own Gaussians, so this process never holds a
    # survey's whole draw: at n = 32 and 2000 sections, the k = 2 surveys'
    # Haar Gaussians alone are 2000 * 32 * 31 doubles; at k = 8 the ascent
    # draws 48 probes per section besides
    monkeypatch.setattr(_ascent, "_WORKERS", 10)
    n, samples = 32, 2000
    full_draw = samples * n * (n - 1) * 8
    tracemalloc.start()
    try:
        report = regular.regularity_report(bd.cross_polytope(n), 0.75, k_grid=[2, 8], samples=samples, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(report.P_emp)
    assert peak < full_draw, f"peak {peak / 2**20:.1f} MiB against one draw of {full_draw / 2**20:.1f} MiB"
    _assert_no_children()
