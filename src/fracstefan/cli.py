"""Command-line front end: table runs, profile/front exports, convergence scans.

Configuration is a flat key=value text file; command-line flags override
file values and anything left unset takes the built-in defaults.  All CSV
output is written with fixed column order and 10-significant-digit
formatting so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import logging
import math
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from . import __version__, backend
from .analytic import (
    DEFAULT_BRACKET,
    ExactSolution,
    PhysicalParams,
    solve_exact,
    solve_p_exact,
    u1_exact,
    u2_exact,
)
from .errors import (
    DomainError,
    FracStefanError,
    InvalidInputError,
    NonConvergenceError,
    ParseError,
    ValidationError,
)
from .fronttrack import (
    DEFAULT_EPS,
    DEFAULT_MAX_ITER,
    bisection_solve,
    final_time,
    front_series,
)
# advance_phase is not called here; perfbench/tracing.py wraps this binding
from .scheme import MeshConfig, advance_phase, recover_physical  # noqa: F401

__all__ = ["RunConfig", "main", "parse_config", "run_convergence", "run_profiles", "run_tables"]

logger = logging.getLogger(__name__)

#: The three built-in parameter quadruples (lambda1, lambda2, kappa1, kappa2)
#: swept by the table runs, and the derivative orders forming the columns.
TABLE_ROWS = ((1.0, 1.0, 1.0, 1.0), (1.0, 2.0, 1.0, 1.0), (1.0, 1.0, 2.0, 1.0))
TABLE_ALPHAS = (0.25, 0.5, 0.75, 1.0)

#: Subcommands and their help text.
MODES = {
    "exact": "front coefficient from the transcendental equation",
    "numeric": "front coefficient from the grid solver",
    "tables": "parameter sweep: exact and numeric coefficients plus final times",
    "profiles": "temperature profiles and front-position export",
    "convergence": "mesh refinement scan",
}

#: The scalar settings, in run.txt order, with their types.  Each is a
#: config-file key and the flag --key (underscores as dashes; epsilon is --eps).
_SETTINGS = {
    "alpha": float, "lambda1": float, "lambda2": float, "kappa1": float,
    "kappa2": float, "theta_inf": float, "ratio": float, "m1": int, "m2": int,
    "n": int, "p_min": float, "p_max": float, "epsilon": float, "max_iter": int,
}

_DEFAULTS = {
    **asdict(PhysicalParams(alpha=0.5)),
    **asdict(MeshConfig()),
    "p_min": DEFAULT_BRACKET[0],
    "p_max": DEFAULT_BRACKET[1],
    "epsilon": DEFAULT_EPS,
    "max_iter": DEFAULT_MAX_ITER,
    "profile_times": None,
    "extra_rows": (),
}


@dataclass
class RunConfig:
    """Fully resolved run settings."""

    params: PhysicalParams
    mesh: MeshConfig
    mode: str
    output_dir: Path
    bracket: tuple
    eps: float
    max_iter: int
    profile_times: tuple | None
    extra_rows: tuple


def float_list(text: str) -> tuple:
    """Comma-separated floats; empty parts are skipped, so "" and "," are the empty tuple.

    The type of --profile-times: argparse's error for a malformed value names it.
    """
    return tuple(float(part) for part in text.split(",") if part.strip())


def _parse_value(key: str, text: str):
    text = text.strip()
    if key in _SETTINGS:
        return _SETTINGS[key](text)
    if key == "profile_times":
        return float_list(text)
    if key == "extra_rows":
        rows = []
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            vals = tuple(float(part) for part in chunk.split(","))
            if len(vals) != 4:
                raise ValueError(f"expected 4 values per row, got {len(vals)}")
            rows.append(vals)
        return tuple(rows)
    raise KeyError(key)


def _read_config_file(path) -> dict:
    values = {}
    try:
        handle = open(path, encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read config file {path}: {exc}") from exc
    with handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, _, text = line.partition("=")
            key = key.strip().lower()
            if key not in _DEFAULTS:
                raise ParseError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _parse_value(key, text)
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def parse_config(path=None, overrides=None, *, mode: str = "exact",
                 output_dir="out") -> RunConfig:
    """Resolve file values, flag overrides and defaults into a RunConfig.

    Raises ParseError on malformed files and ValidationError listing every
    violated invariant at once.
    """
    resolved = dict(_DEFAULTS)
    if path is not None:
        resolved.update(_read_config_file(path))
    for key, value in (overrides or {}).items():
        if value is not None:
            resolved[key] = value

    problems = []
    params = _record(PhysicalParams, resolved, problems)
    mesh = _record(MeshConfig, resolved, problems)
    if not (0.0 < resolved["p_min"] < resolved["p_max"] and math.isfinite(resolved["p_max"])):
        problems.append(
            f"bracket must satisfy 0 < p_min < p_max < inf, got "
            f"({resolved['p_min']}, {resolved['p_max']})"
        )
    if not (resolved["epsilon"] > 0.0 and math.isfinite(resolved["epsilon"])):
        problems.append(f"epsilon must be finite and > 0, got {resolved['epsilon']}")
    if resolved["max_iter"] < 1:
        problems.append(f"max_iter must be >= 1, got {resolved['max_iter']}")
    if resolved["profile_times"] is not None:
        for t in resolved["profile_times"]:
            if not (t > 0.0 and math.isfinite(t)):
                problems.append(f"profile_times entries must be finite and > 0, got {t}")
    for row in resolved["extra_rows"]:
        if not all(v > 0.0 and math.isfinite(v) for v in row):
            problems.append(f"extra_rows entries must be finite and positive, got {row}")
    if mode not in MODES:
        problems.append(f"mode must be one of {tuple(MODES)}, got {mode!r}")
    if problems:
        raise ValidationError("; ".join(problems))

    return RunConfig(
        params=params,
        mesh=mesh,
        mode=mode,
        output_dir=Path(output_dir),
        bracket=(resolved["p_min"], resolved["p_max"]),
        eps=resolved["epsilon"],
        max_iter=resolved["max_iter"],
        # an empty list means unset, as run.txt writes it
        profile_times=resolved["profile_times"] or None,
        extra_rows=resolved["extra_rows"],
    )


def _record(cls, resolved: dict, problems: list):
    """cls built from the resolved values of its fields; None, with the
    violations appended to problems, if it rejects them."""
    try:
        return cls(**{f.name: resolved[f.name] for f in fields(cls)})
    except InvalidInputError as exc:
        problems.append(str(exc))
        return None


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.10g}"


def _write_metadata(config: RunConfig) -> Path:
    path = config.output_dir / "run.txt"
    values = {**asdict(config.params), **asdict(config.mesh),
              "p_min": config.bracket[0], "p_max": config.bracket[1],
              "epsilon": config.eps, "max_iter": config.max_iter}
    times = config.profile_times
    pairs = [("version", __version__), ("backend", backend.active()), ("mode", config.mode)]
    pairs += [(key, _fmt(values[key])) for key in _SETTINGS]
    pairs.append(("profile_times", "" if times is None else ",".join(map(_fmt, times))))
    if config.extra_rows:
        pairs.append(("extra_rows", ";".join(",".join(map(_fmt, row))
                                             for row in config.extra_rows)))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for key, value in pairs:
            handle.write(f"{key}={value}\n")
    return path


def _table_header(prefix: str) -> list:
    return ["lambda1", "lambda2", "kappa1", "kappa2"] + [
        f"{prefix}[alpha={_fmt(a)}]" for a in TABLE_ALPHAS
    ]


def _error_token(exc: Exception) -> str:
    name = type(exc).__name__
    return name.removesuffix("Error")


def _render_table(title: str, header, rows) -> str:
    # 4-decimal view of the CSV content for the terminal
    lines = [title]
    lines.append("  ".join(f"{h:>16}" for h in header))
    for row in rows:
        cells = []
        for cell in row:
            try:
                cells.append(f"{float(cell):16.4f}")
            except (TypeError, ValueError):
                cells.append(f"{cell:>16}")
        lines.append("  ".join(cells))
    return "\n".join(lines)


def _emit(config: RunConfig, tables: dict) -> dict:
    """Write each table as name.csv, then run.txt, then print the titled tables.

    tables maps a name to (title, header, rows); a table titled None is
    written but not printed.  Returns the CSV paths by name.
    """
    paths = {}
    for name, (_, header, rows) in tables.items():
        paths[name] = config.output_dir / f"{name}.csv"
        with open(paths[name], "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    _write_metadata(config)
    for title, header, rows in tables.values():
        if title is not None:
            print(_render_table(title, header, rows))
    return paths


def run_tables(config: RunConfig) -> dict:
    """Sweep the built-in parameter rows over the four derivative orders.

    Writes table1.csv (front coefficients from the transcendental
    equation), table2.csv (front coefficients from the grid solver) and
    table3.csv (times at which the front reaches x = 1, mapped from
    table2 by p -> p**(-2/alpha)).  Failed cells carry the error name and
    the run continues.  The front searches of all cells share one dict of
    per-phase balance terms, so each distinct phase grid is advanced once
    per run.
    """
    config.output_dir.mkdir(parents=True, exist_ok=True)
    rows = TABLE_ROWS + tuple(config.extra_rows)

    # the cells share their phase solves: one balance term per distinct grid
    phase_terms = {}
    exact_rows, numeric_rows, time_rows = [], [], []
    for l1, l2, k1, k2 in rows:
        exact_cells, numeric_cells, time_cells = [], [], []
        for a in TABLE_ALPHAS:
            params = replace(config.params, alpha=a, lambda1=l1, lambda2=l2,
                             kappa1=k1, kappa2=k2)
            try:
                exact_cells.append(_fmt(solve_p_exact(params, config.bracket)))
            except FracStefanError as exc:
                logger.warning("exact cell (%s, alpha=%s) failed: %s", (l1, l2, k1, k2), a, exc)
                exact_cells.append(_error_token(exc))
            try:
                result = bisection_solve(params, config.mesh, config.bracket,
                                         config.eps, config.max_iter,
                                         phase_terms=phase_terms)
                if result.converged:
                    numeric_cells.append(_fmt(result.p))
                    time_cells.append(_fmt(final_time(result.p, a)))
                else:
                    numeric_cells.append("NotConverged")
                    time_cells.append("NotConverged")
            except FracStefanError as exc:
                logger.warning("numeric cell (%s, alpha=%s) failed: %s", (l1, l2, k1, k2), a, exc)
                numeric_cells.append(_error_token(exc))
                time_cells.append(_error_token(exc))
            logger.info("tables: row (%g, %g, %g, %g) alpha=%g done", l1, l2, k1, k2, a)
        prefix = [_fmt(l1), _fmt(l2), _fmt(k1), _fmt(k2)]
        exact_rows.append(prefix + exact_cells)
        numeric_rows.append(prefix + numeric_cells)
        time_rows.append(prefix + time_cells)

    return _emit(config, {
        "table1": ("front coefficient, transcendental equation:",
                   _table_header("p_exact"), exact_rows),
        "table2": ("front coefficient, grid solver:", _table_header("p_numeric"), numeric_rows),
        "table3": ("time to reach x=1, grid solver:", _table_header("tau_final"), time_rows),
    })


def _resolve_profile_levels(config: RunConfig, tau) -> list:
    n = config.mesh.n
    tau_n = tau[n]
    if config.profile_times is None:
        times = [tau_n / 4.0, tau_n / 2.0, 3.0 * tau_n / 4.0, tau_n]
    else:
        times = list(config.profile_times)
        bad = [t for t in times if not 0.0 < t <= tau_n * (1.0 + 1e-12)]
        if bad:
            raise ValidationError(
                f"profile_times must lie in (0, {_fmt(tau_n)}], offending: {bad}"
            )
    dtau = tau[1]
    levels = sorted({max(1, min(n, round(t / dtau))) for t in times})
    return levels


def run_profiles(config: RunConfig) -> dict:
    """Temperature profiles and front position for one parameter set.

    profiles.csv columns: tau, x, u, phase, source (numeric|exact).  The
    exact temperatures are evaluated at the numeric grid points from the
    transcendental-equation solution; cells are left empty where the point
    falls outside that solution's phase region or where the series stops
    converging (large similarity arguments).

    front.csv columns: tau, S_numeric, S_exact.  S_numeric is the front
    recovered from the discrete interface heat balance at each level;
    S_exact is the similarity law p * tau**(alpha/2) at the converged
    numeric coefficient, which reaches 1 at the final level by
    construction.
    """
    config.output_dir.mkdir(parents=True, exist_ok=True)
    params = config.params
    result = bisection_solve(params, config.mesh, config.bracket,
                             config.eps, config.max_iter)
    if not result.converged:
        raise NonConvergenceError(
            f"front search not converged after {result.iterations} iterations "
            f"(|1 - S| = {abs(result.residual):.3e}); config: alpha={params.alpha}"
        )
    p_num = result.p
    g1, g2 = result.grids
    recovered = (recover_physical(g1), recover_physical(g2))

    sol_exact = None
    try:
        sol_exact = solve_exact(params, config.bracket)
    except FracStefanError as exc:
        logger.warning("transcendental solution unavailable, exact columns empty: %s", exc)

    levels = _resolve_profile_levels(config, g1.tau)
    profile_rows = []
    for j in levels:
        tau = _fmt(g1.tau[j])
        phases = list(zip("12", _samples(recovered, j, sol_exact)))
        profile_rows += [[tau, _fmt(x), _fmt(u), phase, "numeric"]
                         for phase, samples in phases for x, u, _ in samples]
        profile_rows += [[tau, _fmt(x), "" if exact is None else _fmt(exact), phase, "exact"]
                         for phase, samples in phases for x, _, exact in samples]

    series = front_series(g1, g2)
    a = params.alpha
    front_rows = []
    for j in range(1, config.mesh.n + 1):
        tau_j = g1.tau[j]
        front_rows.append([_fmt(tau_j), _fmt(series[j]),
                           _fmt(p_num * tau_j ** (a / 2.0))])

    paths = _emit(config, {
        "profiles": (None, ["tau", "x", "u", "phase", "source"], profile_rows),
        "front": (None, ["tau", "S_numeric", "S_exact"], front_rows),
    })
    print(f"p_numeric = {_fmt(p_num)} (|1 - S| = {abs(result.residual):.3e}, "
          f"{result.iterations} iterations)")
    if sol_exact is not None:
        print(f"p_exact = {_fmt(sol_exact.p)}")
    return paths


def _exact_value(fn, x, tau, sol: ExactSolution | None):
    """fn(x, tau, sol) for fn = u1_exact/u2_exact; None without sol, outside
    fn's phase region or where the series stops converging."""
    if sol is None:
        return None
    try:
        return fn(float(x), float(tau), sol)
    except (DomainError, NonConvergenceError):
        return None


def _samples(recovered, j: int, sol: ExactSolution | None) -> list:
    """Per phase, (x, u, exact) at every node of level j.

    recovered is the (liquid, solid) pair of recovered fields; exact is the
    closed form of sol at (x, tau_j), or None (_exact_value).
    """
    tau = recovered[0].tau[j]
    return [[(x, u, _exact_value(fn, x, tau, sol)) for x, u in zip(f.x[j], f.u[j])]
            for f, fn in zip(recovered, (u1_exact, u2_exact))]


def _profile_errors(grids, sol_exact: ExactSolution):
    """Max-abs deviation of the recovered temperatures from the exact route.

    grids is the converged (liquid, solid) pair of a front search.  Sampled
    on up to 8 evenly spaced time levels plus the final one; exact values
    are skipped where their phase region or series range ends.
    """
    g1, g2 = grids
    recovered = (recover_physical(g1), recover_physical(g2))
    n = g1.mesh.n
    stride = max(1, n // 8)
    worst = [0.0, 0.0]
    for j in sorted(set(range(stride, n + 1, stride)) | {n}):
        for phase, samples in enumerate(_samples(recovered, j, sol_exact)):
            for _, u, exact in samples:
                if exact is not None:
                    worst[phase] = max(worst[phase], abs(exact - u))
    return tuple(worst)


def run_convergence(config: RunConfig, levels: int) -> Path:
    """Mesh-refinement scan: p and temperature errors per refinement level.

    Level l runs the front search on the base mesh scaled by 2**l and
    reports |p_num - p_exact| plus max-abs temperature deviations from the
    exact route.  Failed levels carry the error name and the scan
    continues.
    """
    if levels < 2:
        raise InvalidInputError(f"levels must be >= 2, got {levels}")
    config.output_dir.mkdir(parents=True, exist_ok=True)
    params = config.params
    sol_exact = solve_exact(params, config.bracket)
    p_exact = sol_exact.p

    header = ["level", "m1", "m2", "n", "p_exact", "p_num", "p_abs_err", "u1_max_err",
              "u2_max_err", "status"]
    rows = []
    base = config.mesh
    for level in range(levels):
        scale = 2 ** level
        mesh = replace(base, m1=base.m1 * scale, m2=base.m2 * scale, n=base.n * scale)
        row = [str(level), str(mesh.m1), str(mesh.m2), str(mesh.n), _fmt(p_exact)]
        try:
            result = bisection_solve(params, mesh, config.bracket,
                                     config.eps, config.max_iter)
            if not result.converged:
                raise NonConvergenceError(
                    f"not converged after {result.iterations} iterations"
                )
            err1, err2 = _profile_errors(result.grids, sol_exact)
            row += [_fmt(result.p), _fmt(abs(result.p - p_exact)),
                    _fmt(err1), _fmt(err2), "ok"]
        except FracStefanError as exc:
            logger.warning("convergence level %d failed: %s", level, exc)
            row += ["", "", "", "", _error_token(exc)]
        rows.append(row)
        logger.info("convergence level %d done", level)

    return _emit(config, {"convergence": ("mesh refinement scan:", header, rows)})["convergence"]


def _flag(key: str) -> str:
    return "--eps" if key == "epsilon" else "--" + key.replace("_", "-")


def _attach_negative_values(argv) -> list:
    """argv with each setting flag followed by a negative number joined as --flag=value.

    argparse takes only -<digits> and -<digits>.<digits> for negative
    numbers and reads any other token that starts with '-' as an option,
    so '--theta-inf -1e-3' would leave the flag without its value.  A flag
    abbreviated as argparse allows (a prefix of a setting flag) is joined
    too; argparse then resolves or rejects the abbreviation as usual.
    """
    flags = [_flag(key) for key in _SETTINGS]
    out = []
    for token in argv:
        prev = out[-1] if out else ""
        if len(prev) > 2 and any(flag.startswith(prev) for flag in flags) \
                and token.startswith("-"):
            try:
                float(token)
            except ValueError:
                pass
            else:
                out[-1] = f"{out[-1]}={token}"
                continue
        out.append(token)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracstefan",
        description="Two-phase melting-front solver with power-law memory.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in MODES.items():
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", type=Path, default=None, help="key=value config file")
        for key, kind in _SETTINGS.items():
            cmd.add_argument(_flag(key), dest=key, type=kind, default=None)
        cmd.add_argument("--profile-times", dest="profile_times", type=float_list,
                         default=None, help="comma-separated sample times")
        cmd.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        cmd.add_argument("-v", "--verbose", action="store_true")
        if name == "convergence":
            cmd.add_argument("--levels", type=int, default=2)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(
        _attach_negative_values(sys.argv[1:] if argv is None else argv))
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    overrides = {key: getattr(args, key) for key in [*_SETTINGS, "profile_times"]}
    try:
        config = parse_config(args.config, overrides, mode=args.command,
                              output_dir=args.out)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "exact":
            p = solve_p_exact(config.params, config.bracket)
            print(f"p_exact = {_fmt(p)}")
            print(f"final_time = {_fmt(final_time(p, config.params.alpha))}")
        elif args.command == "numeric":
            result = bisection_solve(config.params, config.mesh, config.bracket,
                                     config.eps, config.max_iter)
            print(f"p_numeric = {_fmt(result.p)}")
            print(f"S_final = {_fmt(result.s_final)}")
            print(f"iterations = {result.iterations}")
            print(f"converged = {result.converged}")
            print(f"final_time = {_fmt(final_time(result.p, config.params.alpha))}")
            if not result.converged:
                return 3
        elif args.command == "tables":
            run_tables(config)
        elif args.command == "profiles":
            run_profiles(config)
        elif args.command == "convergence":
            run_convergence(config, args.levels)
    except (ParseError, ValidationError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FracStefanError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # an --out that cannot be created or written
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


def console_entry():  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_entry()
