"""Command-line harness.

    regpos props --seed 1
    regpos qs --config qs.json --seed 7 --out results/

The config is a single JSON document (see README for per-subcommand keys).
Each experiment writes one JSONL record stream plus a CSV summary into
--out; outputs are byte-identical for identical (config, seed).  --threads is
accepted and ignored.  The section surveys of qs, sections, curve and
lowmstar form one batch per run, cut into parts of whole blocks of sections
with their own random numbers and dealt to the calling process and to
children forked once per batch, one per further CPU of the affinity mask
(limit them with taskset), with byte-identical outputs at any CPU count.
Exit codes: 0 pass, 1 invariant failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

import numpy as np

from . import bodies as bd
from . import experiments as ex
from .records import JsonlWriter, write_csv
from .regular import _require_tractable_unconditional
from .zoo import default_zoo, preset


class ConfigError(Exception):
    pass


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _int(value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("not an integer")
    return value


def _num(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not np.isfinite(value):
        raise TypeError("not a finite number")
    return float(value)


# a larger alpha puts theta so near 1 that the balance scale overflows
_ALPHA = (0.5, 100.0)


def _list_of(kind):
    def convert(value):
        if not isinstance(value, list) or not value:
            raise TypeError("not a non-empty list")
        return tuple(map(kind, value))
    return convert


def _get(cfg, key, default, kind, lo=None, hi=np.inf):
    """cfg[key] (or the default) converted by kind, every value in (lo, hi]
    when lo is given; a bad value is a ConfigError.  A key whose default is
    None may be null."""
    value = cfg.get(key, default)
    if value is None and default is None:
        return None
    try:
        out = kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {value!r} ({exc})")
    if lo is not None and not all(lo < v <= hi for v in np.atleast_1d(out)):
        raise ConfigError(f"bad value for {key!r}: {value!r} (need values in ({lo}, {hi}])")
    return out


def _body_entry(e, n):
    """(name, body) for a zoo preset {"preset", "dim"} or a spec of the DSL."""
    if not isinstance(e, dict):
        raise ConfigError(f"bad body entry {e!r}: not an object")
    try:
        if "preset" in e:
            body = preset(e["preset"], _get(e, "dim", n, _int, 1))
            name = e.get("name", e["preset"])
        else:
            body = bd.from_spec(e)
            name = e.get("name", body.family)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad body entry {e!r}: {exc}")
    return str(name), body


def _build_bodies(cfg):
    n = _get(cfg, "n", 16, _int, 1)
    entries = cfg.get("bodies")
    if entries is None:
        return default_zoo(n)
    if not isinstance(entries, list) or not entries:
        raise ConfigError(f"bad value for 'bodies': {entries!r} (need a non-empty list)")
    return [_body_entry(e, n) for e in entries]


def _positionable(name, body):
    """body, or a ConfigError when the fixed point cannot position it."""
    try:
        _require_tractable_unconditional(body)
    except ValueError as exc:
        raise ConfigError(f"bad body {name!r}: {exc}")
    return body


def _single_body(cfg):
    """The fixed-point body of qs and curve (B_1^n by default)."""
    n = _get(cfg, "n", 32, _int, 1)
    e = cfg.get("body")
    return bd.cross_polytope(n) if e is None else _positionable(*_body_entry(e, n))


@contextlib.contextmanager
def _writer(out, name):
    if out is None:
        yield None
        return
    os.makedirs(out, exist_ok=True)
    w = JsonlWriter(os.path.join(out, f"{name}.jsonl"))
    try:
        yield w
    finally:
        w.close()


def _summary_csv(out, name, rows):
    if out is None or not rows:
        return
    os.makedirs(out, exist_ok=True)
    write_csv(os.path.join(out, f"{name}_summary.csv"), rows, list(rows[0]))


def _cmd_props(args, cfg):
    known = [name for name, _ in ex._CHECKS]

    def suites(value):
        if not isinstance(value, list) or not value or not set(value) <= set(known):
            raise ValueError(f"need a non-empty list of suite names from {known}")
        return value

    results = ex.run_property_suites(seed=args.seed, names=_get(cfg, "names", None, suites))
    rows = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        # wall-clock seconds go to stdout only, so the CSV is identical across runs
        print(f"{status} {r.name:28s} ({r.elapsed:5.1f}s)  {r.detail}")
        rows.append({"name": r.name, "passed": int(r.passed), "detail": r.detail})
    _summary_csv(args.out, "props", rows)
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} suite(s) failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _cmd_ellpos(args, cfg):
    bodies = _build_bodies(cfg)
    with _writer(args.out, "ellpos") as w:
        rows = ex.run_ell_positions(
            bodies, samples=_get(cfg, "samples", 20000, _int, 1), seed=args.seed,
            tol=_get(cfg, "tol", 1e-6, _num, 0), writer=w,
        )
    for r in rows:
        print(f"{r['body']:12s} n={r['n']:3d} ell2={r['objective']:.4f} "
              f"residual={r['residual']:.2e} product/nlog(1+n)={r['product_over_nlogn']:.3f}")
    _summary_csv(args.out, "ellpos", rows)
    return 0


def _cmd_regpos(args, cfg):
    bodies = [(n, _positionable(n, b)) for n, b in _build_bodies(cfg)]
    with _writer(args.out, "regpos") as w:
        rows = ex.run_regular_positions(
            bodies, alpha=_get(cfg, "alpha", 0.75, _num, *_ALPHA),
            samples=_get(cfg, "samples", 20000, _int, 1), seed=args.seed, writer=w,
        )
    bad = 0
    for r in rows:
        print(f"{r['body']:12s} n={r['n']:3d} residual={r['residual']:.2e} "
              f"iters={r['iterations']:3d} balance={r['balance']:.4f} "
              f"certificate={r['certificate']:.2e} converged={r['converged']}")
        bad += not r["converged"]
    _summary_csv(args.out, "regpos", rows)
    return 1 if bad else 0


def _cmd_sections(args, cfg):
    bodies = _build_bodies(cfg)
    with _writer(args.out, "sections") as w:
        rows = ex.run_section_tables(
            bodies, k_grid=_get(cfg, "k_grid", None, _list_of(_int), 0, min(b.dim for _, b in bodies)),
            samples=_get(cfg, "samples", 400, _int, 99), c=_get(cfg, "c", 0.5, _num, 0),
            seed=args.seed, writer=w,
        )
    for r in rows:
        print(f"{r['body']:12s} n={r['n']:3d} k={r['k']:3d} cr_k={r['cr_k']:.4f} "
              f"ci=[{r['ci_lo']:.4f},{r['ci_hi']:.4f}] upper={r['c_k_upper']:.4f}")
    _summary_csv(args.out, "sections", rows)
    return 0


def _cmd_lowmstar(args, cfg):
    with _writer(args.out, "lowmstar") as w:
        summary = ex.run_lowmstar_check(
            n_list=_get(cfg, "n_list", [16, 32, 64], _list_of(_int), 1),
            samples=_get(cfg, "samples", 1000, _int, 99), c=_get(cfg, "c", 0.5, _num, 0),
            seed=args.seed, writer=w,
        )
    for (name, n), val in summary["C_emp"].items():
        print(f"{name:12s} n={n:3d}  C_emp = {val:.3f}")
    print(f"max C_emp = {summary['C_emp_max']:.3f}")
    _summary_csv(args.out, "lowmstar", summary["rows"])
    return 0 if summary["C_emp_max"] <= 3.0 else 1


def _cmd_qs(args, cfg):
    K = _single_body(cfg)
    k = _get(cfg, "k", 8, _int, 0, K.dim // 2)
    c = _get(cfg, "c", 0.5, _num, 0)
    with _writer(args.out, "qs") as w:
        s = ex.run_qs_experiment(
            K, _get(cfg, "alpha", None, _num, *_ALPHA), k,
            trials=_get(cfg, "trials", 500, _int, 9), seed=args.seed,
            c=c, fp_samples=_get(cfg, "fp_samples", 20000, _int, 1),
            report_samples=_get(cfg, "report_samples", 400, _int, 99),
            writer=w,
        )
    print(f"n={s.n} k={s.k} alpha={s.alpha:.4f} trials={s.trials}")
    print(f"fixed point: residual={s.fp_residual:.2e} converged={s.fp_converged}")
    print(f"P_emp={s.P_emp:.4f} threshold Rbar^2={s.threshold:.4f}")
    for name, q in s.quantiles.items():
        print(f"  {name}: d_sop={q['d_section_of_projection']:.4f} "
              f"d_pos={q['d_projection_of_section']:.4f}")
    print(f"exceedance: sop={s.exceed_sop:.4f} pos={s.exceed_pos:.4f} "
          f"(bound 2e^-ck = {2*np.exp(-c*k):.4f})")
    print(f"margin dmax/threshold: sop={s.margin_sop:.4f} pos={s.margin_pos:.4f}")
    row = {
        "n": s.n, "k": s.k, "alpha": s.alpha, "trials": s.trials,
        "P_emp": s.P_emp, "threshold": s.threshold,
        "d90_sop": s.quantiles["q90"]["d_section_of_projection"],
        "d90_pos": s.quantiles["q90"]["d_projection_of_section"],
        "exceed_sop": s.exceed_sop, "exceed_pos": s.exceed_pos,
        "dmax_sop": s.dmax_sop, "dmax_pos": s.dmax_pos,
        "margin_sop": s.margin_sop, "margin_pos": s.margin_pos,
        "fp_residual": s.fp_residual, "fp_converged": int(s.fp_converged),
    }
    _summary_csv(args.out, "qs", [row])
    return 0


def _cmd_curve(args, cfg):
    K = _single_body(cfg)
    k_grid = _get(cfg, "k_grid", None, _list_of(_int), 0, K.dim)
    # the slopes are least-squares fits of log cr_k against log(n/k), and the
    # standard error of a fitted slope needs three points
    if len(set(k_grid or ex.default_k_grid(K.dim))) < 3:
        raise ConfigError(f"the k grid of curve needs three distinct k (n = {K.dim}, k_grid = {k_grid})")
    with _writer(args.out, "curve") as w:
        res = ex.run_regularity_curve(
            K, alphas=_get(cfg, "alphas", [0.6, 0.75, 1.0], _list_of(_num), *_ALPHA),
            samples=_get(cfg, "samples", 400, _int, 99), seed=args.seed,
            c=_get(cfg, "c", 0.5, _num, 0), fp_samples=_get(cfg, "fp_samples", 20000, _int, 1),
            k_grid=k_grid, writer=w,
        )
    for pt in res["curve"]:
        print(f"alpha={pt['alpha']:.3f} P_emp={pt['P_emp']:.4f} "
              f"shape=C/sqrt(a-1/2)~{pt['reference_shape']:.3f} "
              f"converged={pt['fp_converged']}")
    _summary_csv(args.out, "curve", res["rows"])
    if args.out:
        write_csv(os.path.join(args.out, "curve_alpha.csv"), res["curve"],
                  list(res["curve"][0]))
    return 0


_COMMANDS = {
    "props": _cmd_props,
    "ellpos": _cmd_ellpos,
    "regpos": _cmd_regpos,
    "sections": _cmd_sections,
    "lowmstar": _cmd_lowmstar,
    "qs": _cmd_qs,
    "curve": _cmd_curve,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="regpos", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and ignored: Gaussian samples are summed on the calling "
                            "thread, and section surveys use every CPU of the affinity mask")
        p.add_argument("--out", default=None, help="output directory for JSONL/CSV")
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:
            raise ConfigError(f"bad value for --seed: {args.seed} (need a non-negative integer)")
        cfg = _load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    t0 = time.time()
    try:
        rc = _COMMANDS[args.command](args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print(f"[{args.command}] done in {time.time() - t0:.1f}s", file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
