"""Command-line surface: one subcommand per library entry point.

Every run writes its outputs into --out (default: current directory) plus a
`manifest.json` recording the command, parameters, versions, seed, wall
time, and output files; re-running a manifest with `rerun_manifest`
reproduces the CSV outputs byte for byte (fixed summation orders, seeded
sampling, repr-exact float formatting).

Exit codes: 0 success, 2 inconclusive certification, 1 error.  A config's
`depth_cap` bounds the --depth a run may ask for: a deeper request exits 1
with the manifest flagged partial, after `enumerate` and `zeta` have written
the levels up to the cap.  A level beyond the product table's memory guard
ends a run the same way.

CSV column orders (one header line, comma separated, '.' decimal):
  classify         index,a,b,c,d,trace,class
  enumerate        depth,word,norm
  zeta             depth,terms,level_sum,cumulative
  pressure         s,lower,upper,depth
  critexp          s_lo,s_hi,depth,norm,certified
  attractor        theta            (plus attractor.svg)
  repeller         theta            (plus repeller.svg)
  dimension        box_dim,stderr,delta_lo,delta_hi,predicted_lo,predicted_hi,verdict
  certify-uh       status,kind,margin,growth_lambda,empirical_c
  certify-sd       status,kind,margin,min_dist_to_identity,min_pairwise
  diophantine      depth,word_count,min_dist,collisions
  furstenberg      theta            (plus furstenberg_summary.csv)
  pivot            word,u_lo,u_hi,u_prime_lo,u_prime_hi,v_lo,v_hi,margin_nested,margin_separation,margin_image
  lower-bound      n,value,delta_lo,delta_hi,alphabet,dropped,c_const,certified
  reduce           order,input_size,output_size  (plus reduced.cfg)
  scan-continuity  t,box_dim,stderr,delta_lo,delta_hi,status,flags  (plus scan.svg)
  report           alphabet,uh_status,sd_status,box_dim,delta_lo,delta_hi,predicted_lo,predicted_hi,verdict  (plus report.txt)

Words are printed as dash-joined letter indices ("0-1-1").  A scan's
status is `ok`, `error: ...` for a ProjIFSError, or `degenerate: ...` for a
ValueError (such as a failed box count).  Its flags column joins with ';'
the markers `jump` (the box dimension differs from the previous finite one
by more than 0.2) and `sd-refuted` (no multicone was found, and products
come within 1e-9 of +-identity by depth min(depth, 8)).  A scan with no
finite value to plot skips scan.svg with a note.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .attractor import (
    attractor_points_fixedpoint,
    attractor_points_orbit,
    box_dimension,
    repeller_points_fixedpoint,
    repeller_points_orbit,
)
from .cones import (
    SDStatus,
    certify_semidiscrete,
    certify_uniform_hyperbolicity,
    sd_refuted,
    sd_status,
)
from .config import emit_config, parse_config, parse_family
from .errors import (
    BudgetExceededError,
    PivotNotFoundError,
    ProjIFSError,
)
from .furstenberg import (
    sample_stationary,
    stationarity_residual,
    support_dimension_report,
)
from .geometry import MatrixClass, classify
from .semigroup import (common_fixed_points, diophantine_profile,
                        first_collision_depth)
from .spectral import critical_exponent_bracket, quick_lower_bounds
from .subsystems import (
    elliptic_reduction,
    find_pivot,
    gamma_lower_bound,
    pivot_margins,
)
from .svgplot import attractor_svg, line_plot_svg

_JUMP_FLAG_THRESHOLD = 0.2
_CONSISTENCY_SLACK = 0.05


def _cell(v) -> str:
    if isinstance(v, float):
        # numpy scalars subclass float but repr as np.float64(...)
        return repr(float(v))
    if v is None:
        return ""
    return str(v)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def _word_str(word) -> str:
    return "-".join(str(i) for i in word)


class _Run:
    """Collects outputs and parameters for the manifest."""

    def __init__(self, command: str, args: argparse.Namespace):
        self.command = command
        self.args = args
        self.out_dir = Path(args.out)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.outputs: list[str] = []
        self.partial = False
        self.started = time.time()

    def path(self, name: str) -> Path:
        self.outputs.append(name)
        return self.out_dir / name

    def finish(self) -> None:
        params = {
            k: v
            for k, v in vars(self.args).items()
            if k not in ("command", "out") and v is not None
        }
        if "config" in params:
            params["config"] = str(Path(params["config"]).resolve())
        manifest = {
            "command": self.command,
            "config": params.get("config"),
            "parameters": params,
            "versions": {
                "projifs": __version__,
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
            "seed": params.get("seed"),
            "wall_time_s": round(time.time() - self.started, 3),
            "outputs": self.outputs,
            "partial": self.partial,
        }
        with open(self.out_dir / "manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _check_depth(cfg, depth: int) -> None:
    """The one place a config's depth_cap is enforced."""
    if depth > cfg.depth_cap:
        raise BudgetExceededError(
            f"depth {depth} exceeds cap {cfg.depth_cap}",
            depth_reached=cfg.depth_cap,
        )


def _load_config(args, depth: int | None = None):
    """The config of a run, with --seed and --norm applied; a run that
    enumerates to `depth` is checked against the config's depth_cap."""
    cfg = parse_config(args.config)
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "norm", None) is not None:
        updates["norm"] = args.norm
    if updates:
        cfg = dataclasses.replace(cfg, source_rows=None, **updates)
    if depth is not None:
        _check_depth(cfg, depth)
    return cfg


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns the process exit code.

def _cmd_classify(args, run: _Run) -> int:
    cfg = _load_config(args)
    rows = []
    for i, m in enumerate(cfg.matrices):
        rows.append((i, m.a, m.b, m.c, m.d, m.trace, classify(m).value))
    _write_csv(run.path("classify.csv"),
               ("index", "a", "b", "c", "d", "trace", "class"), rows)
    shared = common_fixed_points(cfg)
    if shared:
        angles = ", ".join(f"{t:.6f}" for t in shared)
        print(f"reducible: letters share fixed direction(s) at {angles}")
    else:
        print("irreducible: no common fixed direction")
    return 0


def _cmd_enumerate(args, run: _Run) -> int:
    cfg = _load_config(args)
    code = 0
    labels = [str(a) for a in range(cfg.k)]
    with open(run.path("words.csv"), "w", encoding="utf-8",
              newline="") as fh:
        fh.write("depth,word,norm\n")
        try:
            for n in range(1, min(args.depth, cfg.depth_cap) + 1):
                norms = cfg.table.norms(n).tolist()
                if n > 1:
                    # row i is letter i // k^(n-1), then row i % k^(n-1)
                    # of the level before
                    labels = [f"{a}-{tail}" for a in range(cfg.k)
                              for tail in labels]
                fh.writelines(f"{n},{word},{norm!r}\n"
                              for word, norm in zip(labels, norms))
            _check_depth(cfg, args.depth)
        except BudgetExceededError as exc:
            print(f"budget exceeded, output truncated: {exc}",
                  file=sys.stderr)
            run.partial = True
            code = 1
    return code


def _cmd_zeta(args, run: _Run) -> int:
    cfg = _load_config(args)
    levels = []
    code = 0
    try:
        for n in range(1, min(args.depth, cfg.depth_cap) + 1):
            levels.append(math.fsum(cfg.table.norms(n) ** (-2.0 * args.s)))
        _check_depth(cfg, args.depth)
    except BudgetExceededError as exc:
        print(f"budget exceeded, output truncated: {exc}", file=sys.stderr)
        run.partial = True
        code = 1
    rows = [
        (n, cfg.k ** n, level, math.fsum(levels[:n]))
        for n, level in enumerate(levels, start=1)
    ]
    _write_csv(run.path("zeta.csv"),
               ("depth", "terms", "level_sum", "cumulative"), rows)
    if rows:
        print(f"partial zeta at s={args.s:g}: {rows[-1][3]!r} "
              f"after depth {rows[-1][0]}")
    return code


def _cmd_pressure(args, run: _Run) -> int:
    from .spectral import pressure_bracket

    cfg = _load_config(args, args.depth)
    ev = pressure_bracket(cfg, args.s, args.depth)
    _write_csv(run.path("pressure.csv"), ("s", "lower", "upper", "depth"),
               [(ev.s, ev.lower, ev.upper, ev.depth_used)])
    print(f"pressure at s={args.s:g}: [{ev.lower!r}, {ev.upper!r}]")
    return 0


def _cmd_critexp(args, run: _Run) -> int:
    cfg = _load_config(args, args.depth)
    bracket = critical_exponent_bracket(cfg, depth=args.depth, tol=args.tol)
    collision = first_collision_depth(cfg, args.depth)
    _write_csv(run.path("critexp.csv"),
               ("s_lo", "s_hi", "depth", "norm", "certified"),
               [(bracket.lo, bracket.hi, bracket.depth_used, cfg.norm,
                 bracket.certified)])
    print(f"critical exponent in [{bracket.lo!r}, {bracket.hi!r}] "
          f"(certified: {bracket.certified})")
    if collision is not None:
        print("note: system is not free: distinct words repeat a matrix "
              f"from depth {collision}; zeta weights count words, not "
              "matrices")
    for note in bracket.notes:
        print(f"note: {note}")
    return 0


def _cloud_command(args, run: _Run, fixedpoint, orbit, stem: str) -> int:
    cfg = _load_config(args, None if args.samples is not None else args.depth)
    if args.samples is not None:
        cloud = orbit(cfg, args.samples, tol=args.tol)
    else:
        cloud = fixedpoint(cfg, args.depth)
    _write_csv(run.path(f"{stem}.csv"), ("theta",),
               ((float(t),) for t in cloud.points))
    svg = attractor_svg(cloud, title=f"{stem}, {len(cloud)} directions")
    with open(run.path(f"{stem}.svg"), "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"{stem}: {len(cloud)} directions "
          f"({cloud.method}, dropped {cloud.dropped})")
    return 0


def _cmd_attractor(args, run: _Run) -> int:
    return _cloud_command(args, run, attractor_points_fixedpoint,
                          attractor_points_orbit, "attractor")


def _cmd_repeller(args, run: _Run) -> int:
    return _cloud_command(args, run, repeller_points_fixedpoint,
                          repeller_points_orbit, "repeller")


def _formula_check(cfg, depth: int, tol: float):
    """The check of dim_H K = min(1, delta): the fixed-point cloud at
    `depth`, its box dimension, the critical-exponent bracket at
    min(depth, 12), the predicted interval min(1, delta) and the verdict."""
    cloud = attractor_points_fixedpoint(cfg, depth)
    est = box_dimension(cloud)
    bracket = critical_exponent_bracket(cfg, depth=min(depth, 12), tol=tol)
    plo, phi = min(1.0, bracket.lo), min(1.0, bracket.hi)
    if not math.isfinite(bracket.hi):
        verdict = "inconclusive"
    elif plo - _CONSISTENCY_SLACK <= est.value <= phi + _CONSISTENCY_SLACK:
        verdict = "consistent"
    else:
        verdict = "inconsistent"
    return cloud, est, bracket, (plo, phi), verdict


def _cmd_dimension(args, run: _Run) -> int:
    cfg = _load_config(args, args.depth)
    _, est, bracket, (plo, phi), verdict = _formula_check(
        cfg, args.depth, args.tol)
    _write_csv(run.path("dimension.csv"),
               ("box_dim", "stderr", "delta_lo", "delta_hi",
                "predicted_lo", "predicted_hi", "verdict"),
               [(est.value, est.stderr, bracket.lo, bracket.hi,
                 plo, phi, verdict)])
    print(f"box dimension {est.value:.4f} (stderr {est.stderr:.4f}), "
          f"delta in [{bracket.lo:.4f}, {bracket.hi:.4f}]")
    if verdict == "consistent":
        print("verdict: consistent with dim_H K = min(1, delta)")
    elif verdict == "inconclusive":
        print("verdict: inconclusive (no finite upper pressure certificate)")
    else:
        print("verdict: estimates disagree with dim_H K = min(1, delta)")
    return 0


def _cmd_certify_uh(args, run: _Run) -> int:
    cfg = _load_config(args, args.depth)
    cert = certify_uniform_hyperbolicity(cfg, depth=args.depth)
    kind = cert.forward.kind.value if cert.forward.kind else ""
    _write_csv(run.path("certify_uh.csv"),
               ("status", "kind", "margin", "growth_lambda", "empirical_c"),
               [(cert.status.value, kind, cert.forward.margin,
                 cert.growth.lam, cert.empirical_c)])
    if cert.certified:
        print(f"certified uniformly hyperbolic: compact multicone with "
              f"margin {cert.forward.margin:.3g}")
        return 0
    reasons = [n for n in cert.notes]
    if any(classify(m) is MatrixClass.ELLIPTIC for m in cfg.matrices):
        reasons.insert(0, "elliptic letter present")
    msg = "; ".join(reasons) if reasons else "no invariant multicone found"
    print(f"inconclusive: {msg}")
    return 2


def _cmd_certify_sd(args, run: _Run) -> int:
    cfg = _load_config(args, args.depth)
    cert = certify_semidiscrete(cfg, depth=args.depth)
    kind = cert.cone.kind.value if cert.cone and cert.cone.kind else ""
    margin = cert.cone.margin if cert.cone else float("nan")
    _write_csv(run.path("certify_sd.csv"),
               ("status", "kind", "margin", "min_dist_to_identity",
                "min_pairwise"),
               [(cert.status.value, kind, margin,
                 cert.min_dist_to_identity, cert.min_pairwise)])
    for note in cert.notes:
        print(f"note: {note}")
    if cert.status is SDStatus.CERTIFIED_VIA_INVARIANT_SET:
        print("certified semidiscrete via invariant set")
        return 0
    if cert.status is SDStatus.REFUTED_VIA_IDENTITY_APPROACH:
        print("refuted: products approach the identity")
        return 0
    print("inconclusive: finite enumeration neither certified nor refuted")
    return 2


def _cmd_diophantine(args, run: _Run) -> int:
    cfg = _load_config(args, args.depth)
    profile = diophantine_profile(cfg, args.depth)
    _write_csv(run.path("diophantine.csv"),
               ("depth", "word_count", "min_dist", "collisions"),
               [(r.depth, r.word_count, r.min_dist, r.collisions)
                for r in profile.rows])
    c = profile.fitted_c
    print(f"free so far: {profile.free_so_far}; fitted separation base "
          f"c = {c if c is None else format(c, '.4f')}")
    if profile.windowed_from is not None:
        print(f"note: from depth {profile.windowed_from} on, levels are "
              "scanned by a sorted window: min_dist is an upper bound and "
              "collisions a lower bound")
    return 0


def _cmd_furstenberg(args, run: _Run) -> int:
    cfg = _load_config(args, args.depth)
    if cfg.probs is None:
        uniform = tuple(1.0 / cfg.k for _ in cfg.matrices)
        cfg = dataclasses.replace(cfg, source_rows=None, probs=uniform)
    sample = sample_stationary(cfg, args.samples or 10_000, tol=args.tol)
    residual = stationarity_residual(sample, cfg)
    cloud = attractor_points_fixedpoint(cfg, args.depth)
    # args.tol is the sampling singular-value-ratio threshold here; the
    # bracket keeps the spectral default
    bracket = critical_exponent_bracket(cfg, depth=min(args.depth, 12))
    report = support_dimension_report(sample, cloud, cfg=cfg,
                                      delta_bracket=bracket)
    _write_csv(run.path("furstenberg.csv"), ("theta",),
               ((float(t),) for t in sample.points))
    _write_csv(run.path("furstenberg_summary.csv"),
               ("samples", "dropped", "residual", "hausdorff", "box_dim",
                "box_stderr", "predicted_lo", "predicted_hi"),
               [(len(sample), sample.dropped, residual, report.hausdorff,
                 report.sample_dimension.value, report.sample_dimension.stderr,
                 report.predicted_lo, report.predicted_hi)])
    print(f"stationarity residual {residual:.4f}; support vs attractor "
          f"Hausdorff {report.hausdorff:.4f}")
    for note in report.notes:
        print(f"note: {note}")
    return 0


def _cmd_pivot(args, run: _Run) -> int:
    cfg = _load_config(args, args.depth)
    pivot = find_pivot(cfg, depth=args.depth)
    m_nest, m_gap, m_map = pivot_margins(pivot)
    _write_csv(run.path("pivot.csv"),
               ("word", "u_lo", "u_hi", "u_prime_lo", "u_prime_hi",
                "v_lo", "v_hi", "margin_nested", "margin_separation",
                "margin_image"),
               [(_word_str(pivot.a0[0]), pivot.U[0], pivot.U[1],
                 pivot.U_prime[0], pivot.U_prime[1], pivot.V[0], pivot.V[1],
                 m_nest, m_gap, m_map)])
    print(f"pivot word {_word_str(pivot.a0[0])}; margins "
          f"{m_nest:.3g}, {m_gap:.3g}, {m_map:.3g}")
    for note in pivot.notes:
        print(f"note: {note}")
    return 0


def _cmd_lower_bound(args, run: _Run) -> int:
    cfg = _load_config(args, args.depth)
    pivot = find_pivot(cfg, depth=args.depth)
    g = gamma_lower_bound(cfg, pivot, args.n)
    lo = g.delta_bracket.lo if g.delta_bracket else float("nan")
    hi = g.delta_bracket.hi if g.delta_bracket else float("nan")
    _write_csv(run.path("lower_bound.csv"),
               ("n", "value", "delta_lo", "delta_hi", "alphabet", "dropped",
                "c_const", "certified"),
               [(g.n, g.value, lo, hi, len(g.matrices), g.dropped_words,
                 g.c_const, g.certified)])
    print(f"dimension lower bound {g.value:.4f} from {len(g.matrices)} "
          f"pivoted words at tail length {g.n}")
    for note in g.notes:
        print(f"note: {note}")
    return 0


def _cmd_reduce(args, run: _Run) -> int:
    cfg = _load_config(args)
    elliptic = tuple(
        m for m in cfg.matrices if classify(m) is MatrixClass.ELLIPTIC
    )
    rest = tuple(
        m for m in cfg.matrices if classify(m) is not MatrixClass.ELLIPTIC
    )
    if not rest:
        print("error: every letter is elliptic; nothing to reduce onto",
              file=sys.stderr)
        return 1
    reduced = elliptic_reduction(rest, elliptic)
    order = 1 if not elliptic else len(reduced) // max(len(rest), 1)
    out_cfg = dataclasses.replace(
        cfg, matrices=tuple(reduced), probs=None, source_rows=None
    )
    with open(run.path("reduced.cfg"), "w", encoding="utf-8") as fh:
        fh.write(emit_config(out_cfg))
    _write_csv(run.path("reduce.csv"),
               ("order", "input_size", "output_size"),
               [(order, cfg.k, len(reduced))])
    print(f"replaced {cfg.k} letters (joint elliptic order {order}) by a "
          f"product alphabet of {len(reduced)}, no standalone elliptic "
          "letters left")
    return 0


def _scan_row(cfg, depth: int, tol: float):
    """One grid point's box dimension, bracket and flags.  `sd-refuted`
    comes from sd_refuted alone, so the cone search runs only at points whose
    products reach +-identity, and no discreteness profile is built."""
    cloud = attractor_points_fixedpoint(cfg, depth)
    est = box_dimension(cloud)
    bracket = critical_exponent_bracket(cfg, depth=min(depth, 10), tol=tol)
    flags = ["sd-refuted"] if sd_refuted(cfg, min(depth, 8)) else []
    return est, bracket, flags


def _cmd_scan_continuity(args, run: _Run) -> int:
    family = parse_family(args.config)
    _check_depth(family, args.depth)
    rows = []
    dims = []
    prev_dim = None
    max_jump = 0.0
    for t in family.grid:
        try:
            cfg = family.at(t)
            est, bracket, flags = _scan_row(cfg, args.depth, args.tol)
            dim, err = est.value, est.stderr
            lo, hi = bracket.lo, bracket.hi
            status = "ok"
        except ProjIFSError as exc:
            dim = err = lo = hi = float("nan")
            flags = []
            status = f"error: {exc}".replace(",", ";")
        except ValueError as exc:
            dim = err = lo = hi = float("nan")
            flags = []
            status = f"degenerate: {exc}".replace(",", ";")
        if prev_dim is not None and math.isfinite(dim) \
                and math.isfinite(prev_dim):
            jump = abs(dim - prev_dim)
            max_jump = max(max_jump, jump)
            if jump > _JUMP_FLAG_THRESHOLD:
                flags.append("jump")
        if math.isfinite(dim):
            prev_dim = dim
        dims.append(dim)
        rows.append((float(t), dim, err, lo, hi, status, ";".join(flags)))
    _write_csv(run.path("scan.csv"),
               ("t", "box_dim", "stderr", "delta_lo", "delta_hi", "status",
                "flags"), rows)
    series = [("box_dim", dims), ("delta_lo", [r[3] for r in rows])]
    if any(math.isfinite(y) for _, ys in series for y in ys):
        svg = line_plot_svg([r[0] for r in rows], series,
                            x_label="t", y_label="dimension")
        with open(run.path("scan.svg"), "w", encoding="utf-8") as fh:
            fh.write(svg)
    else:
        print("note: no grid point gave a finite box dimension or delta "
              "bound; scan.svg not written")
    flagged = sum(1 for r in rows if r[6])
    print(f"scanned {len(rows)} grid points; max adjacent jump "
          f"{max_jump:.4f}; {flagged} flagged")
    return 0


def _write_report_text(run: _Run, lines) -> None:
    text = "\n".join(lines) + "\n"
    with open(run.path("report.txt"), "w", encoding="utf-8") as fh:
        fh.write(text)
    print(text, end="")


def _cmd_report(args, run: _Run) -> int:
    cfg = _load_config(args, args.depth)
    lines = [f"system of {cfg.k} matrices from {args.config}"]
    for i, m in enumerate(cfg.matrices):
        lines.append(
            f"  letter {i}: [{m.a:.6g} {m.b:.6g}; {m.c:.6g} {m.d:.6g}] "
            f"{classify(m).value}"
        )
    shared = common_fixed_points(cfg)
    lines.append(
        "reducible (shared fixed direction)" if shared else "irreducible"
    )
    uh = certify_uniform_hyperbolicity(cfg, depth=args.depth)
    sd = sd_status(cfg, args.depth)
    lines.append(f"uniform hyperbolicity: {uh.status.value}")
    lines.append(f"semidiscreteness: {sd.value}")
    for b in quick_lower_bounds(cfg):
        lines.append(
            f"quick bound: delta >= {b.value:g} ({b.reason}, "
            f"certified {b.certified})"
        )
    try:
        cloud, est, bracket, (plo, phi), verdict = _formula_check(
            cfg, args.depth, args.tol)
    except (ProjIFSError, ValueError) as exc:
        # keep what was decided; run_command reports the error and exits 1
        lines.append(f"formula check failed: {exc}")
        _write_report_text(run, lines)
        raise
    lines.append(
        f"box dimension {est.value:.4f} +- {est.stderr:.4f} "
        f"({len(cloud)} directions at depth {args.depth})"
    )
    lines.append(f"critical exponent in [{bracket.lo:.4f}, {bracket.hi:.4f}]")
    lines.append(f"predicted dimension min(1, delta) in [{plo:.4f}, {phi:.4f}]")
    lines.append(f"verdict: {verdict}")
    _write_report_text(run, lines)
    _write_csv(run.path("report.csv"),
               ("alphabet", "uh_status", "sd_status", "box_dim", "delta_lo",
                "delta_hi", "predicted_lo", "predicted_hi", "verdict"),
               [(cfg.k, uh.status.value, sd.value, est.value,
                 bracket.lo, bracket.hi, plo, phi, verdict)])
    return 0


#: Per command: its handler, and the options the handler reads besides
#: --config and --out, with their defaults.  --norm and --seed override the
#: config, so only commands whose outputs depend on the config's norm or
#: seed take them.  --tol is a bisection width for the spectral commands and
#: a singular-value-ratio threshold for the sampling ones.
_COMMANDS = {
    "classify": (_cmd_classify, {}),
    "enumerate": (_cmd_enumerate, {"depth": 6, "norm": None}),
    "zeta": (_cmd_zeta, {"depth": 8, "norm": None, "s": 0.45}),
    "pressure": (_cmd_pressure, {"depth": 8, "norm": None, "s": None}),
    "critexp": (_cmd_critexp, {"depth": 10, "norm": None, "tol": 1e-4}),
    "attractor": (_cmd_attractor, {"depth": 12, "samples": None,
                                   "seed": None, "tol": 1e-9}),
    "repeller": (_cmd_repeller, {"depth": 12, "samples": None,
                                 "seed": None, "tol": 1e-9}),
    "dimension": (_cmd_dimension, {"depth": 12, "norm": None, "tol": 1e-4}),
    "certify-uh": (_cmd_certify_uh, {"depth": 10, "norm": None}),
    "certify-sd": (_cmd_certify_sd, {"depth": 10}),
    "diophantine": (_cmd_diophantine, {"depth": 8}),
    "furstenberg": (_cmd_furstenberg, {"depth": 12, "norm": None,
                                       "samples": None, "seed": None,
                                       "tol": 1e-9}),
    "pivot": (_cmd_pivot, {"depth": 4, "norm": None}),
    "lower-bound": (_cmd_lower_bound, {"depth": 4, "norm": None, "n": 3}),
    "reduce": (_cmd_reduce, {"norm": None, "seed": None}),
    "scan-continuity": (_cmd_scan_continuity, {"depth": 10, "tol": 1e-4}),
    "report": (_cmd_report, {"depth": 10, "norm": None, "tol": 1e-4}),
}


def _positive_int(text: str) -> int:
    value = int(text) if text.strip().isdecimal() else 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _nonnegative_int(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a non-negative integer")
    return int(text)


_OPTION_TYPES = {"depth": _positive_int, "samples": _positive_int,
                 "seed": _nonnegative_int, "n": _positive_int,
                 "tol": float, "s": float}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    run_command call; callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="projifs",
        description="Finite systems of unit-determinant 2x2 matrices acting "
        "on the projective line: classification, attractors, dimension "
        "bounds, and certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        for option, default in options.items():
            if option == "norm":
                p.add_argument("--norm", choices=("op2", "max"), default=None)
            else:
                p.add_argument(f"--{option}", type=_OPTION_TYPES[option],
                               default=default,
                               required=(name, option) == ("pressure", "s"))
        p.add_argument("--out", default=".")
    return parser


def run_command(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    run = _Run(args.command, args)
    try:
        code = _COMMANDS[args.command][0](args, run)
    except PivotNotFoundError as exc:
        print(f"inconclusive: {exc}")
        code = 2
    except (ProjIFSError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, BudgetExceededError):
            run.partial = True
        run.finish()
        return 1
    run.finish()
    return code


def rerun_manifest(manifest_path, out_dir=None) -> int:
    """Re-execute a recorded run; CSV outputs are reproduced byte for byte."""
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    argv = [manifest["command"]]
    params = dict(manifest["parameters"])
    if out_dir is not None:
        params["out"] = str(out_dir)
    for key, value in params.items():
        argv.append(f"--{key.replace('_', '-')}")
        argv.append(str(value))
    return run_command(argv)


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
