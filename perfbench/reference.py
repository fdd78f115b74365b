"""Independent references that the benchmark checks feedbackcast's outputs against.

Nothing here imports feedbackcast. The closed forms are written out from the
model's documented formulas, rolling fits are recomputed with
``numpy.linalg.lstsq``, and Monte Carlo results are judged by z-scores at
5 standard errors (looser than the acceptance suite's 3, so that a fresh seed
does not trip them by chance).
"""

from __future__ import annotations

import json
import math

import numpy as np

Z_LIMIT = 5.0
REL_TOL = 1e-9
ABS_TOL = 1e-12


class CheckFailed(Exception):
    """An output disagrees with its reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(got, want, what: str, scale: float | None = None) -> None:
    """``got`` must equal ``want`` to REL_TOL, relative to ``scale`` when the
    value is a sum of larger terms (defaults to ``|want|``)."""
    scale = abs(want) if scale is None else scale
    require(
        got is not None and abs(got - want) <= REL_TOL * scale + ABS_TOL,
        f"{what}: got {got!r}, want {want!r}",
    )


def within_z(estimate: float, target: float, stderr: float, what: str) -> None:
    require(stderr > 0.0 and math.isfinite(stderr), f"{what}: stderr {stderr!r}")
    z = abs(estimate - target) / stderr
    require(z < Z_LIMIT, f"{what}: z {z:.2f} (estimate {estimate!r}, target {target!r})")


# ---------------------------------------------------------------------------
# closed forms (model documentation)

def optimal_rule(b, c, mu, tau2, y_target):
    """Best linear forecast (d, e) against the conjecture f = b + c*theta."""
    s = mu + c
    denom = tau2 + s * s
    k = (tau2 + mu * s) / denom
    return k * (c * y_target + b), c * s / denom


def bias_line(b, c, mu, tau2, y_target):
    """(coef_theta, coef_const) of E[y - f* | theta] under conjecture (b, c)."""
    s = mu + c
    g = tau2 / (tau2 + s * s)
    return g, -g * (c * y_target + b)


def mz_line(b, c, mu, tau2, y_target):
    """(intercept, slope) of E[y | f*] under conjecture (b, c)."""
    cs = c * (mu + c)
    return -tau2 * (c * y_target + b) / cs, (tau2 + cs) / cs


def equilibria(mu, tau2, y_target):
    """Self-confirming roots as a list of dicts, or None when tau2 > 1/4.

    Root i has slope c = 1/2 - mu +/- sqrt(1 - 4*tau2)/2 and intercept
    b = k*c*y_target/(1 - k), with 1 - k written as c*s/(tau2 + s^2).
    """
    if tau2 > 0.25:
        return None
    r = math.sqrt(1.0 - 4.0 * tau2)
    roots = []
    for c in (0.5 - mu + 0.5 * r, 0.5 - mu - 0.5 * r):
        s = mu + c
        denom = tau2 + s * s
        if denom == 0.0:
            roots.append(dict(slope=c, k=1.0 + mu, degenerate=True, intercept=None))
            continue
        k = (tau2 + mu * s) / denom
        if c == 0.0:
            roots.append(dict(slope=c, k=k, degenerate=True, intercept=None))
            continue
        roots.append(
            dict(slope=c, k=k, degenerate=False, intercept=k * c * y_target / (c * s / denom))
        )
    return roots


def conditional_lines(a0, b, c, mu, y_target):
    """Bias (coef_theta, coef_const) and MZ (intercept, slope) when the
    published forecast is theta + a0 and the DM reacts through (b, c)."""
    level = mu * (c * y_target + b) / c
    return (-mu / c, level - (mu + c) * a0 / c), (level - a0, (c - mu) / c)


# ---------------------------------------------------------------------------
# the game, played without the package (input panels)

def play_equilibrium(rng, n, mu, tau2, support, sigma2, y_target, theta_mean, theta_var):
    """Forecasts and outcomes of n rounds under the first self-confirming rule,
    with the reaction strength drawn from a Beta rescaled to ``support``."""
    root = equilibria(mu, tau2, y_target)[0]
    b, c = root["intercept"], root["slope"]
    lo, hi = support
    m = (mu - lo) / (hi - lo)
    v = tau2 / (hi - lo) ** 2
    nu = m * (1.0 - m) / v - 1.0
    theta = rng.normal(theta_mean, math.sqrt(theta_var), n)
    x = lo + (hi - lo) * rng.beta(m * nu, (1.0 - m) * nu, n)
    eps = rng.normal(0.0, math.sqrt(sigma2), n)
    forecast = b + c * theta
    outcome = theta + x * (y_target - (forecast - b) / c) + eps
    return forecast, outcome


# ---------------------------------------------------------------------------
# least-squares references

def window_fit(xs: np.ndarray, ys: np.ndarray) -> dict:
    """MZ fit of ys on xs by lstsq, with the classical slope stderr."""
    n = xs.shape[0]
    design = np.column_stack((np.ones(n), xs))
    coef, _, _, _ = np.linalg.lstsq(design, ys, rcond=None)
    resid = ys - design @ coef
    ssr = float(resid @ resid)
    cov = np.linalg.inv(design.T @ design) * (ssr / (n - 2))
    dy = ys - ys.mean()
    syy = float(dy @ dy)
    return {
        "intercept": float(coef[0]),
        "slope": float(coef[1]),
        "slope_stderr": math.sqrt(cov[1, 1]),
        "r_squared": 1.0 - ssr / syy if syy > 0.0 else 1.0,
        "mean_error": float(np.mean(ys - xs)),
    }


def check_fit(got: dict, xs: np.ndarray, ys: np.ndarray, what: str) -> None:
    want = window_fit(xs, ys)
    for key, value in want.items():
        if key in got:
            close(got[key], value, f"{what} {key}")


# ---------------------------------------------------------------------------
# Monte Carlo references (acceptance criteria 3, 4 and 8)

def check_shock_moments(x: np.ndarray, family: str, mean: float, var: float, what: str) -> None:
    if family == "degenerate":
        require(bool(np.all(x == mean)), f"{what}: degenerate draws differ from {mean}")
        return
    require(bool(np.all(x > 0.0)), f"{what}: non-positive reaction draw")
    n = x.shape[0]
    dev = x - x.mean()
    m2 = float(dev @ dev) / n
    m4 = float(np.mean(dev**4))
    within_z(float(x.mean()), mean, math.sqrt(m2 / n), f"{what} draw mean")
    within_z(m2, var, math.sqrt(max(m4 - m2 * m2, 0.0) / n), f"{what} draw variance")


def check_play(play: dict, out) -> None:
    """Check a play_game result against the closed forms for its scenario.

    ``out`` is the SimulationOutput; only its arrays and its summary fits are
    read.
    """
    what = play["name"]
    mu, tau2, yt = play["mu"], play["tau2"], play["y_target"]
    theta, forecast, outcome, error, action = (
        out.theta, out.forecast, out.outcome, out.error, out.action
    )
    require(theta.shape == (play["draws"],), f"{what}: {theta.shape[0]} draws")
    require(bool(np.isfinite(outcome).all()), f"{what}: non-finite outcome")
    require(
        bool(np.allclose(error, outcome - forecast, rtol=REL_TOL, atol=ABS_TOL)),
        f"{what}: error is not outcome - forecast",
    )
    check_shock_moments(out.x, play["family"], mu, tau2, what)

    summary = out.summary
    scenario = play["scenario"]
    if scenario in ("equilibrium", "taylor_rule", "conjecture_rule"):
        if scenario == "equilibrium":
            root = equilibria(mu, tau2, yt)[0]
            b, c = root["intercept"], root["slope"]
        elif scenario == "taylor_rule":
            b, c = 0.0, 1.0
        else:
            b, c = play["b"], play["c"]
        d, e = optimal_rule(b, c, mu, tau2, yt)
        require(
            bool(np.allclose(forecast, d + e * theta, rtol=REL_TOL, atol=1e-9)),
            f"{what}: forecasts off the rule ({d}, {e})",
        )
        bias = bias_line(b, c, mu, tau2, yt)
        mz = mz_line(b, c, mu, tau2, yt)
    elif scenario == "conditional" and not play["dm_applies_assumed"]:
        bias, mz = conditional_lines(play["a0"], play["b"], play["c"], mu, yt)
    else:
        # the DM takes a known action, so the error is pure outcome noise
        if scenario == "conditional":
            require(bool(np.all(action == play["a0"])), f"{what}: action is not a0")
        else:
            a0, a1 = play["menu"]
            t = 1.0 / out.x - 1.0
            lhs = (theta + a0 - yt) ** 2 - (theta + a1 - yt) ** 2
            rhs = t * (a1 * a1 - a0 * a0)
            pick = np.where(lhs <= rhs, a0, a1)
            tie = np.abs(lhs - rhs) <= REL_TOL * (np.abs(lhs) + np.abs(rhs))
            require(bool(np.all((action == pick) | tie)), f"{what}: menu choice off the rule")
        n = error.shape[0]
        within_z(float(error.mean()), 0.0, float(error.std(ddof=1)) / math.sqrt(n),
                 f"{what} mean error")
        return

    fit = summary.bias_fit
    within_z(fit.line.coef_theta, bias[0], fit.stderrs[1], f"{what} bias coef_theta")
    within_z(fit.line.coef_const, bias[1], fit.stderrs[0], f"{what} bias coef_const")
    require(summary.mz is not None, f"{what}: no MZ fit though the forecasts vary")
    within_z(summary.mz.line.intercept, mz[0], summary.mz.stderrs[0], f"{what} MZ intercept")
    within_z(summary.mz.line.slope, mz[1], summary.mz.stderrs[1], f"{what} MZ slope")


def check_oracle(case: dict, exact: float, f_hat: float, stderr: float, tolerance: float) -> None:
    d, e = optimal_rule(case["b"], case["c"], case["mu"], case["tau2"], case["y_target"])
    f_star = d + e * case["theta"]
    require(abs(exact - f_star) <= 1e-9, f"{case['name']}: exact {exact!r} vs {f_star!r}")
    require(
        stderr > 0.0 and abs(f_hat - f_star) <= Z_LIMIT * stderr + tolerance,
        f"{case['name']}: MC {f_hat!r} vs {f_star!r} (stderr {stderr!r})",
    )


# ---------------------------------------------------------------------------
# CLI outputs

def _check_lines(section: dict, b, c, mu, tau2, y_target, what: str, fixed_point: bool) -> None:
    d, e = optimal_rule(b, c, mu, tau2, y_target)
    rule = section["rule"] if fixed_point else section["optimal_rule"]
    close(rule["intercept"], d, f"{what} rule intercept", scale=abs(d) + abs(b))
    close(rule["slope"], e, f"{what} rule slope", scale=abs(e) + abs(c))
    g, const = bias_line(b, c, mu, tau2, y_target)
    close(section["bias_line"]["coef_theta"], g, f"{what} bias coef_theta")
    close(section["bias_line"]["coef_const"], const, f"{what} bias coef_const")
    intercept, slope = mz_line(b, c, mu, tau2, y_target)
    close(section["mz_line"]["intercept"], intercept, f"{what} MZ intercept")
    close(section["mz_line"]["slope"], slope, f"{what} MZ slope")


def check_solve(stdout: bytes, point: dict) -> None:
    report = json.loads(stdout)
    mu, tau2 = point["mu"], point["tau2"]
    yt = point.get("y_target", 0.0)
    eq = report["equilibria"]
    roots = equilibria(mu, tau2, yt)
    require(eq["exists"] == (roots is not None), f"solve {point}: exists {eq['exists']}")
    if roots is not None:
        require(len(eq["roots"]) == 2, f"solve {point}: {len(eq['roots'])} roots")
        require(eq["repeated"] == (math.sqrt(1.0 - 4.0 * tau2) == 0.0), f"solve {point}: repeated")
        for i, (got, want) in enumerate(zip(eq["roots"], roots), start=1):
            close(got["slope"], want["slope"], f"solve root {i} slope", scale=0.5 + abs(mu))
            close(got["k"], want["k"], f"solve root {i} k")
            require(got["degenerate"] == want["degenerate"], f"solve root {i} degenerate")
            if want["intercept"] is not None:
                close(got["intercept"], want["intercept"], f"solve root {i} intercept")
        first = roots[0]
        require(("equilibrium" in report) == (not first["degenerate"]),
                f"solve {point}: equilibrium section")
        if not first["degenerate"]:
            _check_lines(report["equilibrium"], first["intercept"], first["slope"],
                         mu, tau2, yt, "solve equilibrium", fixed_point=True)
    _check_lines(report["taylor"], 0.0, 1.0, mu, tau2, yt, "solve taylor", fixed_point=False)
    if "c" in point:
        _check_lines(report["conjecture"], point["b"], point["c"], mu, tau2, yt,
                     "solve conjecture", fixed_point=False)


def check_sweep(path, mus, tau2_min, tau2_max, steps, y_target, clip) -> None:
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    require(lines[0] == "mu,tau2,mz_slope,mz_intercept,exists", "sweep header")
    require(len(lines) == 1 + len(mus) * steps, f"sweep: {len(lines) - 1} rows")
    row = iter(lines[1:])
    for mu in mus:
        for tau2 in np.linspace(tau2_min, tau2_max, steps):
            tau2 = float(tau2)
            fields = next(row).split(",")
            what = f"sweep mu={mu} tau2={tau2}"
            close(float(fields[0]), mu, what + " mu")
            close(float(fields[1]), tau2, what + " tau2")
            roots = equilibria(mu, tau2, y_target)
            if roots is None or roots[0]["degenerate"]:
                flag = "false" if roots is None else "true"
                require(fields[2:] == ["", "", flag], f"{what}: {fields[2:]}")
                continue
            intercept, slope = mz_line(roots[0]["intercept"], roots[0]["slope"], mu, tau2, y_target)
            require(fields[4] == "true", f"{what}: exists {fields[4]}")
            close(float(fields[2]), min(max(slope, -clip), clip), what + " slope")
            close(float(fields[3]), min(max(intercept, -clip), clip), what + " intercept")


def check_simulate(stdout: bytes, summary_path, draws_path, game: dict, draws: int, seed: int,
                   rng: np.random.Generator, samples: int = 200) -> None:
    with open(summary_path, encoding="utf-8") as handle:
        summary = json.load(handle)
    require(summary["draw_count"] == draws and summary["seed"] == seed, "simulate run echo")
    require(f"draws: {draws}".encode() in stdout, "simulate stdout")
    mu, tau2, yt = game["mu"], game["tau2"], game["y_target"]
    root = equilibria(mu, tau2, yt)[0]
    b, c = root["intercept"], root["slope"]
    fits = summary["summary"]
    mz_i, mz_s = mz_line(b, c, mu, tau2, yt)
    within_z(fits["mz"]["intercept"], mz_i, fits["mz"]["intercept_stderr"], "simulate MZ intercept")
    within_z(fits["mz"]["slope"], mz_s, fits["mz"]["slope_stderr"], "simulate MZ slope")
    g, const = bias_line(b, c, mu, tau2, yt)
    within_z(fits["bias_fit"]["slope"], g, fits["bias_fit"]["slope_stderr"], "simulate bias slope")
    within_z(fits["bias_fit"]["intercept"], const, fits["bias_fit"]["intercept_stderr"],
             "simulate bias intercept")

    with open(draws_path, "rb") as handle:
        require(handle.readline() == b"theta,x,forecast,action,outcome,error\n", "draws header")
        newlines = 1
        while chunk := handle.read(1 << 22):
            newlines += chunk.count(b"\n")
        require(newlines == draws + 1, f"draws file has {newlines - 1} rows")
        size = handle.tell()
        # rows at seeded byte offsets: forecasts follow the equilibrium rule
        # and actions the DM's reaction through it
        for offset in rng.integers(0, size, samples):
            handle.seek(int(offset))
            handle.readline()
            line = handle.readline()
            if not line:
                continue  # the offset fell in the last row
            theta, x, f, a, y, err = (float(v) for v in line.split(b","))
            what = f"draws row at byte {offset}"
            require(0.0 < x <= 1.0, f"{what}: x {x}")  # printed to 10 digits
            close(f, b + c * theta, what + " forecast", scale=abs(b) + abs(c * theta))
            gap = yt - (f - b) / c
            close(a, x * gap, what + " action", scale=x * (abs(yt) + (abs(f) + abs(b)) / abs(c)))
            close(err, y - f, what + " error", scale=abs(y) + abs(f))


def check_evaluate(stdout: bytes, rolling_path, labels, f, y, window: int,
                   sample: np.ndarray, full: dict) -> None:
    head = stdout.decode().splitlines()[0]
    require(head.startswith("full_sample_mz: "), "evaluate stdout")
    got = {k: float(v) for k, v in (item.split("=") for item in head.split()[1:])}
    for key in ("intercept", "slope", "slope_stderr", "r_squared"):
        close(got[key], full[key], f"evaluate full-sample {key}")
    with open(rolling_path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    header = "window_end,mz_intercept,mz_slope,slope_stderr,r_squared,mean_error"
    require(lines[0] == header, "rolling header")
    require(len(lines) == len(labels) - window + 2, f"rolling: {len(lines) - 1} rows")
    keys = ("intercept", "slope", "slope_stderr", "r_squared", "mean_error")
    for k in sample:
        fields = lines[1 + k].split(",")
        what = f"window {window} ending {labels[k + window - 1]}"
        require(fields[0] == labels[k + window - 1], f"{what}: label {fields[0]}")
        got = dict(zip(keys, (float(v) for v in fields[1:])))
        check_fit(got, f[k:k + window], y[k:k + window], what)
