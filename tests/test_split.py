"""Stacked section surveys split across forked processes (_ascent._split):
the same bytes at every worker count, and no child left behind."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from regpos import _ascent
from regpos import bodies as bd
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
        outs.append(_ascent._extrema(body, Zs, Ps, mode, np.random.default_rng(5), _ascent.SURVEY))
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


def test_worker_count_never_exceeds_the_usable_cpus(monkeypatch):
    cpus = len(os.sched_getaffinity(0))
    for count in (0, 1, _ascent._MIN_PART, 2 * _ascent._MIN_PART, 10_000):
        assert 1 <= _ascent._workers(count) <= max(1, min(cpus, count))
    assert _ascent._workers(_ascent._MIN_PART * 2 - 1) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert _ascent._workers(10_000) == 1
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(_ascent, "_WORKERS", 3)
    assert _ascent._workers(10_000) == 1


def _failing_part(where):
    """A part over (a, b) that raises in the child with the second part, in the
    parent (first part), or nowhere."""
    def part(a, b):
        if where == ("parent" if a == 0 else "child" if a == 2 else None):
            raise ValueError(f"bad sections {a}..{b}")
        return np.arange(a, b, dtype=float)
    return part


@pytest.mark.parametrize("where", ["child", "parent"])
def test_a_failing_part_raises_in_the_caller_and_leaves_no_child(where, monkeypatch):
    monkeypatch.setattr(_ascent, "_WORKERS", 3)
    assert _ascent._split(_failing_part("none"), 6).tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    _assert_no_children()
    match = r"^bad sections 2\.\.4$" if where == "child" else r"^bad sections 0\.\.2$"
    with pytest.raises(ValueError, match=match):
        _ascent._split(_failing_part(where), 6)
    _assert_no_children()


def test_children_never_flush_inherited_buffers(tmp_path, monkeypatch):
    monkeypatch.setattr(_ascent, "_WORKERS", 3)
    path = tmp_path / "r.jsonl"
    K = bd.WeightedLp(1.5, np.linspace(1.0, 2.0, N))
    Zs = sp.haar_grassmannian_batch(np.random.default_rng(33), N, N - 3, S)
    with JsonlWriter(str(path)) as w:
        w.write(ExperimentRecord(experiment="split", seed=0, body=K.spec(), params={}, measured={}))
        _ascent._extrema(K, Zs, None, "max", np.random.default_rng(7), _ascent.SURVEY)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["experiment"] == "split"
    _assert_no_children()
