"""The four benchmark workloads, their output checks and their reference data.

Each workload is deterministic.  The seed only permutes the order in which
cells, profile levels and points are evaluated, so every seed gives the same
outputs.  `tables` and `profiles` run the CLI, whose order is fixed, and
`refine` keeps its mesh levels ascending, because their order changes how the
allocator grows and so the peak memory.

A pass returns a `PassResult`.  An operation (a table cell on `tables` and
`closedform`, a two-phase grid solve on `profiles` and `refine`) fails when it
raises, when its front search does not converge, or when one of its output
checks fails.  A closed-form value the library documents as unavailable
(`DomainError`, `NonConvergenceError` from `u1_exact`/`u2_exact`) is a gap,
not a failure.  Known accuracy defects are reported, never checked away.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fracstefan import analytic, cli, fronttrack, scheme
from fracstefan.errors import DomainError, NonConvergenceError

#: Closed-form front coefficients per (row of cli.TABLE_ROWS, alpha), copied
#: from tests/conftest.py:P_EXACT_REF (50-digit evaluation, 10 digits kept).
P_EXACT_REF = {
    (0, 0.25): 0.6834360268, (0, 0.5): 0.7471522031, (0, 0.75): 0.8298629142, (0, 1.0): 0.9397019994,
    (1, 0.25): 0.5495734689, (1, 0.5): 0.6013344454, (1, 0.75): 0.6680156903, (1, 1.0): 0.7555195764,
    (2, 0.25): 0.7218191515, (2, 0.5): 0.7867654757, (2, 0.75): 0.8697122946, (2, 1.0): 0.9783189413,
}

#: Grid coefficient of row 0, alpha = 0.5 from an external code at the
#: production mesh 100/500/400 (tests/conftest.py:P_NUMERIC_REF).
P_PRODUCTION_REF = 0.7358

ROOT_TOL = 1e-8  # closed-form root against P_EXACT_REF
PRODUCTION_TOL = 0.02  # relative, grid p against P_PRODUCTION_REF
BOUNDARY_TOL = 1e-9  # closed-form fields against their boundary values
TIME_IMAGE_TOL = 1e-8  # relative, table3 against table2**(-2/alpha), 10-digit CSV cells
EPS = 1e-3  # the CLI's default front-search tolerance on |1 - S|
LEVEL_FRACTIONS = (0.25, 0.5, 0.75, 1.0)  # profile levels, as fractions of tau_n


@dataclass
class PassResult:
    outputs: dict  # computed outputs; equal across passes, seeds and tracing
    report: dict  # accuracy figures by name
    attempted: int
    failures: list  # one message per failed operation
    op_seconds: list = field(default_factory=list)  # wall time per operation
    csv_bytes: int = 0


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _params(row: int, alpha: float) -> analytic.PhysicalParams:
    l1, l2, k1, k2 = cli.TABLE_ROWS[row]
    return analytic.PhysicalParams(alpha=alpha, lambda1=l1, lambda2=l2, kappa1=k1, kappa2=k2)


def _cell(row: int, alpha: float) -> str:
    return f"row{row}/alpha{alpha:g}"


def _read_csv(path: Path):
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))[1:]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _exact_field(fn, xs, tau, sol, order):
    """fn at every x, in the given order; NaN where the value is a documented gap."""
    out = np.empty(len(xs))
    for i in order:
        try:
            out[i] = fn(float(xs[i]), tau, sol)
        except (DomainError, NonConvergenceError):
            out[i] = math.nan
    return out


class Workload:
    name = ""

    def __init__(self, order_seed: str, workdir: Path):
        self.rng = random.Random(order_seed)
        self.workdir = workdir

    def shuffled(self, items):
        items = list(items)
        self.rng.shuffle(items)
        return items

    def probe(self):
        """(params, p, mesh) at which the per-call layer probes run."""
        return _params(0, 0.5), P_EXACT_REF[(0, 0.5)], self.mesh

    def run_pass(self, tracer=None) -> PassResult:
        raise NotImplementedError


class _CliWorkload(Workload):
    def run_cli(self, argv, tracer):
        """cli.main(argv) with stdout captured; returns (exit code, front searches).

        Each front search the CLI makes is recorded as (params, result, seconds),
        through the same module binding the tracer wraps.
        """
        solves = []
        solve = cli.bisection_solve

        def recorded(params, *args, **kwargs):
            start = time.perf_counter()
            result = solve(params, *args, **kwargs)
            solves.append((params, result, time.perf_counter() - start))
            return result

        cli.bisection_solve = recorded
        try:
            with contextlib.redirect_stdout(io.StringIO()), _span(tracer, "cli"):
                code = cli.main([*argv, "--out", str(self.workdir)])
        finally:
            cli.bisection_solve = solve
        return code, solves

    def csv_bytes(self, names):
        return sum((self.workdir / name).stat().st_size for name in names)


class Tables(_CliWorkload):
    """`fracstefan tables`: 3 rows x 4 alphas, exact and grid coefficients."""

    name = "tables"

    def __init__(self, order_seed, tiny, workdir):
        super().__init__(order_seed, workdir)
        self.mesh = scheme.MeshConfig(m1=6, m2=18, n=12) if tiny else \
            scheme.MeshConfig(m1=50, m2=250, n=200)

    def run_pass(self, tracer=None):
        mesh = self.mesh
        code, solves = self.run_cli(
            ["tables", "--m1", str(mesh.m1), "--m2", str(mesh.m2), "--n", str(mesh.n)], tracer)
        names = ("table1.csv", "table2.csv", "table3.csv")
        t1, t2, t3 = (_read_csv(self.workdir / name) for name in names)
        found = {}
        for params, result, seconds in solves:
            row = cli.TABLE_ROWS.index((params.lambda1, params.lambda2,
                                        params.kappa1, params.kappa2))
            found[(row, params.alpha)] = result
        outputs = {"p_exact": {}, "p_grid": {}, "S": {},
                   "csv_sha256": {name: _sha256(self.workdir / name) for name in names}}
        failures = [] if code == 0 else [f"cli exit code {code}"]
        if not len(t1) == len(t2) == len(t3) == len(cli.TABLE_ROWS):
            failures.append(f"table row counts {len(t1)}, {len(t2)}, {len(t3)}")
            t1 = t2 = t3 = []
        p_gap = s_gap = 0.0
        for row in range(len(t1)):
            for col, alpha in enumerate(cli.TABLE_ALPHAS):
                cell = _cell(row, alpha)
                texts = (t1[row][4 + col], t2[row][4 + col], t3[row][4 + col])
                try:
                    p_exact, p_text, tau_text = (float(text) for text in texts)
                except ValueError:
                    failures.append(f"{cell}: cells {texts}")
                    continue
                result = found[(row, alpha)]
                outputs["p_exact"][cell] = p_exact
                outputs["p_grid"][cell] = result.p
                outputs["S"][cell] = result.s_final
                problems = []
                p_ref = P_EXACT_REF[(row, alpha)]
                if abs(p_exact - p_ref) > ROOT_TOL:
                    problems.append(f"exact root {p_exact} vs reference {p_ref}")
                if not (result.converged and abs(1.0 - result.s_final) < EPS):
                    problems.append(f"grid search converged={result.converged}, S={result.s_final}")
                image = p_text ** (-2.0 / alpha)
                if abs(tau_text - image) > TIME_IMAGE_TOL * image:
                    problems.append(f"table3 {tau_text} is not p**(-2/alpha) = {image}")
                if problems:
                    failures.append(f"{cell}: " + "; ".join(problems))
                p_gap = max(p_gap, abs(result.p - p_exact) / p_exact)
                s_gap = max(s_gap, abs(1.0 - result.s_final))
        attempted = len(cli.TABLE_ROWS) * len(cli.TABLE_ALPHAS)
        return PassResult(outputs, {"p_rel_gap": p_gap, "s_gap": s_gap}, attempted,
                          failures, [seconds for _, _, seconds in solves],
                          self.csv_bytes(names))


class Profiles(_CliWorkload):
    """`fracstefan profiles --alpha 0.5` at the production mesh."""

    name = "profiles"

    def __init__(self, order_seed, tiny, workdir):
        super().__init__(order_seed, workdir)
        self.mesh = scheme.MeshConfig(m1=8, m2=40, n=24) if tiny else scheme.MeshConfig()

    def run_pass(self, tracer=None):
        mesh = self.mesh
        code, solves = self.run_cli(
            ["profiles", "--alpha", "0.5", "--m1", str(mesh.m1), "--m2", str(mesh.m2),
             "--n", str(mesh.n)], tracer)
        names = ("profiles.csv", "front.csv")
        failures = [] if code == 0 else [f"cli exit code {code}"]
        if code != 0 or len(solves) != 1:
            return PassResult({}, {}, 1, failures or [f"{len(solves)} front searches"])
        _, result, seconds = solves[0]
        p_ref = P_EXACT_REF[(0, 0.5)]
        if not (result.converged and abs(1.0 - result.s_final) < EPS):
            failures.append(f"grid search converged={result.converged}, S={result.s_final}")
        if mesh == scheme.MeshConfig() and \
                abs(result.p - P_PRODUCTION_REF) > PRODUCTION_TOL * P_PRODUCTION_REF:
            failures.append(f"p={result.p} not within 2% of {P_PRODUCTION_REF}")

        profiles = _read_csv(self.workdir / "profiles.csv")
        front = _read_csv(self.workdir / "front.csv")
        per_level = mesh.m1 + mesh.m2 + 2
        if len(profiles) != 2 * per_level * len(LEVEL_FRACTIONS) or len(front) != mesh.n:
            failures.append(f"row counts: profiles.csv {len(profiles)}, front.csv {len(front)}")
        u_err, gaps = 0.0, 0
        for start in range(0, len(profiles), 2 * per_level):
            numeric = profiles[start:start + per_level]
            exact = profiles[start + per_level:start + 2 * per_level]
            for num, ex in zip(numeric, exact):
                if ex[2] == "":
                    gaps += 1
                else:
                    u_err = max(u_err, abs(float(num[2]) - float(ex[2])))
        outputs = {"p": result.p, "S": result.s_final,
                   "csv_sha256": {name: _sha256(self.workdir / name) for name in names}}
        report = {"p_rel_gap": abs(result.p - p_ref) / p_ref,
                  "s_gap": abs(1.0 - result.s_final), "u_err": u_err, "exact_gaps": gaps}
        return PassResult(outputs, report, 1, failures, [seconds], self.csv_bytes(names))


class Refine(Workload):
    """Pinned-p refinement in n: both advances, the front balance and field errors."""

    name = "refine"

    def __init__(self, order_seed, tiny, workdir):
        super().__init__(order_seed, workdir)
        self.levels = (16, 32, 64) if tiny else (400, 800, 1600)
        m1, m2 = (8, 40) if tiny else (50, 250)
        self.meshes = {n: scheme.MeshConfig(m1=m1, m2=m2, n=n) for n in self.levels}
        self.mesh = self.meshes[self.levels[-1]]

    def run_pass(self, tracer=None):
        params = _params(0, 0.5)
        p = analytic.solve_p_exact(params)
        sol = analytic.ExactSolution(p, params)
        outputs = {"p": p, "S": {}, "u_err": {}}
        failures, op_seconds = [], []
        for n in self.levels:  # ascending: the order sets the allocator's growth, hence peak RSS
            start = time.perf_counter()
            try:
                with _span(tracer, "refine.level"):
                    mesh = self.meshes[n]
                    g1 = scheme.advance_phase(scheme.make_phase_grid(1, p, mesh, params))
                    g2 = scheme.advance_phase(scheme.make_phase_grid(2, p, mesh, params))
                    s = fronttrack.stefan_front_value(g1, g2)
                    f1 = scheme.recover_physical(g1)
                    f2 = scheme.recover_physical(g2)
                    tau = float(f1.tau[n])
                    u1 = _exact_field(analytic.u1_exact, f1.x[n], tau, sol,
                                      self.shuffled(range(mesh.m1 + 1)))
                    u2 = _exact_field(analytic.u2_exact, f2.x[n], tau, sol,
                                      self.shuffled(range(mesh.m2 + 1)))
            except Exception as exc:  # the run goes on and reports the level as failed
                failures.append(f"n={n}: {type(exc).__name__}: {exc}")
                continue
            op_seconds.append(time.perf_counter() - start)
            if not (np.isfinite(f1.u).all() and np.isfinite(f2.u).all() and math.isfinite(s)):
                failures.append(f"n={n}: non-finite field or front value")
            outputs["S"][str(n)] = s
            outputs["u_err"][str(n)] = float(max(np.nanmax(np.abs(u1 - f1.u[n])),
                                                 np.nanmax(np.abs(u2 - f2.u[n]))))
        finest = str(self.levels[-1])
        p_ref = P_EXACT_REF[(0, 0.5)]
        report = {"p_rel_gap": abs(p - p_ref) / p_ref,
                  "s_gap": abs(1.0 - outputs["S"].get(finest, math.nan)),
                  "u_err": outputs["u_err"].get(finest, math.nan)}
        return PassResult(outputs, report, len(self.levels), failures, op_seconds)


class ClosedForm(Workload):
    """All 12 cells by the closed-form route: root, then both fields at 4 levels."""

    name = "closedform"

    def __init__(self, order_seed, tiny, workdir):
        super().__init__(order_seed, workdir)
        self.mesh = scheme.MeshConfig(m1=10, m2=20) if tiny else scheme.MeshConfig()

    def run_pass(self, tracer=None):
        m1, m2, length = self.mesh.m1, self.mesh.m2, self.mesh.ratio
        v1 = np.linspace(0.0, 1.0, m1 + 1)
        v2 = np.linspace(0.0, 1.0, m2 + 1)
        cells = [(row, alpha) for row in range(len(cli.TABLE_ROWS)) for alpha in cli.TABLE_ALPHAS]
        outputs = {"p": {}, "field_sha256": {}, "gaps": {}}
        failures, op_seconds = [], []
        p_gap = 0.0
        for row, alpha in self.shuffled(cells):
            cell = _cell(row, alpha)
            start = time.perf_counter()
            try:
                with _span(tracer, "closedform.cell"):
                    params = _params(row, alpha)
                    p = analytic.solve_p_exact(params)
                    sol = analytic.ExactSolution(p, params)
                    tau_n = p ** (-2.0 / alpha)
                    fields = {}
                    for fraction in self.shuffled(LEVEL_FRACTIONS):
                        tau = tau_n * fraction
                        front = p * tau ** (alpha / 2.0)
                        fields[fraction] = (
                            _exact_field(analytic.u1_exact, v1 * front, tau, sol,
                                         self.shuffled(range(m1 + 1))),
                            _exact_field(analytic.u2_exact, front + v2 * (length - front),
                                         tau, sol, self.shuffled(range(m2 + 1))))
            except Exception as exc:  # the run goes on and reports the cell as failed
                failures.append(f"{cell}: {type(exc).__name__}: {exc}")
                continue
            op_seconds.append(time.perf_counter() - start)
            problems = []
            if abs(p - P_EXACT_REF[(row, alpha)]) > ROOT_TOL:
                problems.append(f"root {p} vs reference {P_EXACT_REF[(row, alpha)]}")
            digest = hashlib.sha256()
            gaps = 0
            for fraction in LEVEL_FRACTIONS:
                u1, u2 = fields[fraction]
                digest.update(u1.tobytes())
                digest.update(u2.tobytes())
                gaps += int(np.isnan(u1).sum() + np.isnan(u2).sum())
                edges = (u1[0] - 1.0, u1[-1], u2[0])
                if not all(abs(e) <= BOUNDARY_TOL for e in edges):
                    problems.append(f"tau={tau_n * fraction:.6g}: u1(0)-1, u1(S), u2(S) = {edges}")
            if problems:
                failures.append(f"{cell}: " + "; ".join(problems))
            outputs["p"][cell] = p
            outputs["field_sha256"][cell] = digest.hexdigest()
            outputs["gaps"][cell] = gaps
            p_gap = max(p_gap, abs(p - P_EXACT_REF[(row, alpha)]) / P_EXACT_REF[(row, alpha)])
        report = {"p_rel_gap": p_gap, "exact_gaps": sum(outputs["gaps"].values())}
        return PassResult(outputs, report, len(cells), failures, op_seconds)


WORKLOADS = {w.name: w for w in (Tables, Profiles, Refine, ClosedForm)}
