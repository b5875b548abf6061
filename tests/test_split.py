"""Batches of section surveys (_ascent.survey, _ascent.run_surveys): parts
dealt to forked processes give the same bytes at every worker count, draw
their Haar bases and probes block by block from seeds drawn at planning,
hold no more than a part's draws in the calling process, and leave no child
behind.  Tests that need several blocks from a few sections set _BLOCK
small."""

from __future__ import annotations

import copy
import json
import os
import re
import tracemalloc
import weakref

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
    D = np.broadcast_to(np.diag(np.sqrt(s)), (S, N, N))    # |D z| is the gauge of the ellipsoid {z^T diag(s) z <= 1}
    codim2 = sp.haar_grassmannian_batch(rng, N, N - 2, S)
    codim5 = sp.haar_grassmannian_batch(rng, N, N - 5, S)
    ell = bd.Ellipsoid(np.diag(s**2))
    wlp = bd.WeightedLp(1.5, s)
    cases = {f"eigen-{tag}": (ell, codim5, Ps, "max") for tag, Ps in (("none", None), ("matrix", P), ("diag", D))}
    for body in (bd.WeightedLp(1.0, s), bd.WeightedLp(np.inf, s)):
        for tag, Ps in (("none", None), ("matrix", P)):
            cases[f"vertex-p{body.p}-{tag}"] = (body, codim2, Ps, "max")
    for mode in ("max", "min"):
        for tag, Ps in (("none", None), ("matrix", P), ("diag", D)):
            cases[f"ascent-{mode}-{tag}"] = (wlp, codim5, Ps, mode)
    return cases


CASES = _cases()


@pytest.mark.parametrize("case", sorted(CASES))
def test_extrema_identical_across_worker_counts(case, monkeypatch):
    body, Zs, Ps, mode = CASES[case]
    monkeypatch.setattr(_ascent, "_BLOCK", 2)
    outs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(_ascent, "_WORKERS", workers)
        outs.append(_ascent.ratio_extremum_many(body, Zs, Ps, mode, np.random.default_rng(5)))
    assert outs[0].shape == (S,)
    for out in outs[1:]:
        assert out.tobytes() == outs[0].tobytes()
    _assert_no_children()


def test_a_batch_identical_to_its_surveys_one_by_one(monkeypatch):
    # four routes in one batch: the same bytes as each survey alone, serially
    # and whole, whatever the processes and the slabs (one block, two blocks,
    # the whole part) within a part
    monkeypatch.setattr(_ascent, "_BLOCK", 2)
    jobs = [CASES[c] for c in ("ascent-max-matrix", "vertex-pinf-none", "eigen-diag", "ascent-min-diag",
                               "vertex-p1.0-matrix")]
    alone = [_ascent.ratio_extremum_many(body, Zs, Ps, mode, np.random.default_rng(i))
             for i, (body, Zs, Ps, mode) in enumerate(jobs)]
    for workers, slab in ((1, 1), (2, 4), (3, _ascent._SLAB)):
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
    """Three ascent surveys on Haar recipes of 9 sections: with _BLOCK = 3,
    three parts each at 3 workers."""
    rng = np.random.default_rng(seed)
    K = bd.WeightedLp(1.5, np.linspace(1.0, 2.0, N))
    return [_ascent.survey(K, _ascent.Haar(int(rng.integers(2**63)), N, N - 4, 9), None, "max", rng)
            for _ in range(3)]


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
    monkeypatch.setattr(_ascent, "_BLOCK", 3)
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
def test_haar_recipe_bases_are_the_haar_of_their_block_draws(workers, monkeypatch):
    # 11 sections in blocks of 4, 4 and 3, each block from its own stream
    monkeypatch.setattr(_ascent, "_WORKERS", workers)
    monkeypatch.setattr(_ascent, "_BLOCK", 4)
    m = N - 5
    draws = [np.random.default_rng(np.random.SeedSequence(42, spawn_key=(j,))).standard_normal((size, N, m))
             for j, size in enumerate((4, 4, 3))]
    bases = _ascent._haar(np.concatenate(draws))
    job = _ascent.survey(bd.cube(N), _ascent.Haar(42, N, m, 11), None, "max", np.random.default_rng(7))
    assert len(job.parts) == workers and job.route == "ascent"
    assert _ascent._bases(job, 0, 11).tobytes() == bases.tobytes()
    # the parts' bases, wherever they are solved: the same bytes as the stack given whole
    given = _ascent.ratio_extremum_many(bd.cube(N), bases, rng=np.random.default_rng(7))
    assert _ascent.run_surveys([job])[0].tobytes() == given.tobytes()
    _assert_no_children()


def _bootstrap_states(monkeypatch):
    """The generators random_gelfand draws from, each with its state at its
    first bootstrap and its k."""
    first = {}
    for module in (regular, ex):
        gelfand = module.random_gelfand

        def recording(K, k, samples, c=0.5, *, rng, values=None, gelfand=gelfand):
            first.setdefault(id(rng), (rng, rng.bit_generator.state, k))
            return gelfand(K, k, samples, c, rng=rng, values=values)

        monkeypatch.setattr(module, "random_gelfand", recording)
    return first


def _after_integers(rng, count):
    """The state of a fresh generator on rng's seed after count integer draws."""
    fresh = np.random.Generator(type(rng.bit_generator)(rng.bit_generator.seed_seq))
    for _ in range(count):
        fresh.integers(2**63)
    return fresh.bit_generator.state


@pytest.mark.parametrize("caller", ["report", "sections", "lowmstar", "qs"])
def test_planning_moves_each_generator_only_by_its_integer_draws(caller, monkeypatch):
    # planning draws a Haar seed and a probe seed per survey and no Gaussians,
    # so at its first bootstrap each generator is exactly that many integer
    # draws from its start; lowmstar draws one Haar seed per (n, k), shared
    # by the zoo, and qs's flag generator draws the flags, then one probe
    # seed per flag survey
    first = _bootstrap_states(monkeypatch)
    K = bd.cross_polytope(16)
    if caller == "report":
        regular.regularity_report(K, 0.75, samples=100, seed=3)
    elif caller == "sections":
        ex.run_section_tables([("b1", K), ("wlp1.5", bd.WeightedLp(1.5, np.linspace(1.0, 2.0, 16)))],
                              samples=100, seed=3)
    elif caller == "lowmstar":
        ex.run_lowmstar_check(n_list=(8,), samples=100, seed=3, ell_samples=1000)
    else:
        flags = []
        flag_batch = sp.haar_flag_batch

        def flagging(rng, n, k, count):
            out = flag_batch(rng, n, k, count)
            flags.append((rng, copy.deepcopy(rng)))
            return out

        monkeypatch.setattr(sp, "haar_flag_batch", flagging)
        ex.run_qs_experiment(K, 0.75, 2, trials=30, seed=4, fp_samples=2000, report_samples=100)
        (rng, after_flags), = flags
        for _ in range(6):
            after_flags.integers(2**63)
        assert rng.bit_generator.state == after_flags.bit_generator.state
    surveys = {"report": 2 * 4, "sections": 2 * 4, "lowmstar": 3, "qs": 2 * 4}[caller]
    assert len(first) == surveys
    zoo = len(ex.default_zoo(8))
    for rng, state, k in first.values():
        draws = 1 + (k > 1) * zoo if caller == "lowmstar" else 2 * (k > 1)
        assert state == _after_integers(rng, draws)


def _lowmstar_surveys(monkeypatch):
    """The surveys run_lowmstar_check plans, by (n, k)."""
    planned = {}
    plan = ex._radius_survey

    def recording(K, k, samples, rng, haar=None):
        job = plan(K, k, samples, rng, haar)
        if isinstance(job, _ascent.Survey):
            planned.setdefault((K.dim, k), []).append(job)
        return job

    monkeypatch.setattr(ex, "_radius_survey", recording)
    return planned


def test_lowmstar_zoo_sees_identical_bases_at_each_n_k(monkeypatch):
    planned = _lowmstar_surveys(monkeypatch)
    ex.run_lowmstar_check(n_list=(4, 8), samples=100, seed=2, ell_samples=1000)
    assert sorted(planned) == [(4, 2), (8, 2), (8, 4)]
    seeds = set()
    for (n, k), jobs in planned.items():
        assert len(jobs) == len(ex.default_zoo(n))
        bases = [_ascent._bases(job, 0, 100).tobytes() for job in jobs]
        assert bases == bases[:1] * len(jobs)
        seeds.add(jobs[0].bases.seed)
    assert len(seeds) == len(planned)


def test_a_lowmstar_run_forks_once(monkeypatch):
    # one batch for every survey of the run, with no Gaussian sample alive
    monkeypatch.setattr(_ascent, "_WORKERS", 3)
    samples, make = [], ex.GaussianSample

    def tracked(*args):
        sample = make(*args)
        samples.append(weakref.ref(sample))
        return sample

    monkeypatch.setattr(ex, "GaussianSample", tracked)
    forks, alive, fork = [], [], os.fork

    def counting():
        alive.append(any(s() is not None for s in samples))
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    out = ex.run_lowmstar_check(n_list=(4, 8), samples=100, seed=2, ell_samples=1000)
    assert len(out["rows"]) == 8 * 5 and len(samples) == 2
    assert len(forks) == 2 and alive == [False, False]
    _assert_no_children()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("body", [bd.WeightedLp(1.5, np.linspace(1.0, 2.0, N)), bd.cross_polytope(N)])
def test_numerator_stacks_must_match_the_bases(body, workers, monkeypatch):
    # 200 sections of codimension 2: the ascent on wlp1.5, the vertex search on B_1
    monkeypatch.setattr(_ascent, "_WORKERS", workers)
    rng = np.random.default_rng(44)
    bases = sp.haar_grassmannian_batch(rng, N, N - 2, 200)
    for shape in ((1, 3, N), (199, 3, N), (200, 3, N - 1), (200, N)):
        with pytest.raises(ValueError, match=r"\(S, q, n\) stack"):
            sp.section_out_radii(body, bases, rng, rng.standard_normal(shape))
    for Ps in (bd.ball(N), bd.cube(N)):        # a numerator is |P z|, never a second body's gauge
        with pytest.raises(ValueError, match=r"\(S, q, n\) stack"):
            sp.section_out_radii(body, bases, rng, Ps)
        with pytest.raises(ValueError, match=r"\(S, q, n\) stack"):
            _ascent.ratio_extremum_many(body, bases, Ps)
        with pytest.raises(ValueError, match=r"\(S, q, n\) stack"):
            _ascent.ratio_extremum(body, bases[0], Ps)
    assert sp.section_out_radii(body, bases, rng, rng.standard_normal((200, 3, N))).shape == (200,)
    _assert_no_children()


@pytest.mark.parametrize("body", [bd.cross_polytope(N), bd.cube(N), bd.WeightedLp(1.5, np.linspace(1.0, 2.0, N)),
                                  bd.ball(N)], ids=["b1", "cube", "wlp1.5", "ball"])
def test_bases_must_be_sections_of_the_body(body):
    # an empty section, another ambient dimension, one unstacked basis and a
    # recipe with more columns than rows are refused before any part runs
    rng = np.random.default_rng(45)
    bad = [np.zeros((2, N, 0)), sp.haar_grassmannian_batch(rng, N - 2, 3, 5), sp.haar_grassmannian(rng, N, 3).basis,
           sp.haar_grassmannian(rng, N - 2, 3).basis]
    for bases in bad:
        with pytest.raises(ValueError, match=re.escape(f"1 <= d <= n = {N}, not of shape {np.shape(bases)}")):
            sp.section_out_radii(body, bases, rng)
        with pytest.raises(ValueError, match=r"\(S, n, d\) stack"):
            _ascent.ratio_extremum_many(body, bases, mode="min")
    for recipe in (_ascent.Haar(7, N, N + 1, 40), _ascent.Haar(7, N - 1, 3, 40), _ascent.Haar(7, N, 0, 40)):
        with pytest.raises(ValueError, match=r"\(S, n, d\) stack or Haar recipe"):
            _ascent.survey(body, recipe)
    assert _ascent.run_surveys([_ascent.survey(body, _ascent.Haar(7, N, 3, 40))])[0].shape == (40,)
    _assert_no_children()


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
