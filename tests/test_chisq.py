"""`varw.chisq` against the routine it ports, `scipy.special.chdtrc`."""

import math
from collections import defaultdict

import numpy as np
from scipy.special import chdtrc as scipy_chdtrc

import varw.chisq as chisq

RECORDED = (
    "lgam", "_zeta", "_erfc", "_igam_fac", "_igam_series",
    "_igamc_series", "_igamc_continued_fraction", "_asymptotic_series",
)


def _grid(rng):
    """(df, x) points: every df from 1 to 3000 at x = 0, near df and across
    (0, 3 df), plus the regions that reach each branch of `igamc`."""
    points = []
    for df in range(1, 3001):
        points += [(df, 0.0), (df, df * (1 + rng.normal() / math.sqrt(df))), (df, df * rng.uniform(0, 3))]
    for df in (1, 2):
        # x/2 <= 0.5 and x/2 in (0.5, 1.1]: igamc_series and igam_series
        points += [(df, x) for x in rng.uniform(0, 1, 300)]
        points += [(df, x) for x in rng.uniform(1, 2.2, 300)]
        points += [(df, x) for x in 10 ** rng.uniform(-300, 0, 100)]
    for df in rng.integers(1, 3001, 300):
        # x/2 > 1.1 below and above df/2
        points += [(df, x) for x in (rng.uniform(2.2, max(df, 2.3)), rng.uniform(df, 3 * df + 3))]
    for df in rng.integers(41, 400, 300):
        # Temme's regime for 20 < a < 200: |x - a| < 0.3 a
        points.append((df, df * rng.uniform(0.71, 1.29)))
    for df in rng.integers(401, 3001, 300):
        # Temme's regime for a > 200, and the a >= 200 branch of igam_fac
        # just outside it
        points.append((df, df * (1 + rng.uniform(-4.4, 4.4) / math.sqrt(df / 2))))
        points.append((df, df * (1 + rng.choice([-1, 1]) * rng.uniform(4.6 / math.sqrt(df / 2), 0.39))))
    for df in rng.integers(296, 400, 100):
        # a < 200 <= x within 0.4 a, outside Temme's regime
        points.append((df, df * rng.uniform(1.31, 1.39)))
    for df in (1, 2, 400, 3000):
        # x far above a, where x**a * exp(-x) / gamma(a) underflows
        points += [(df, 1e5), (df, 1e300)]
    df, x = (np.array(column) for column in zip(*points))
    return df.astype(np.int64), x.astype(np.float64)


def test_chdtrc_equals_scipy_on_every_branch(monkeypatch):
    calls = defaultdict(list)

    def record(name, f):
        def wrapper(*args):
            result = f(*args)
            calls[name].append((*args, result))
            return result
        return wrapper

    for name in RECORDED:
        monkeypatch.setattr(chisq, name, record(name, getattr(chisq, name)))
    df, x = _grid(np.random.default_rng(31))
    expected = scipy_chdtrc(df, x)
    mismatches = [
        (int(d), float(v)) for d, v, e in zip(df, x, expected) if chisq.chdtrc(int(d), float(v)) != float(e)
    ]
    assert mismatches == []

    def entered(name, condition):
        return any(condition(*call) for call in calls[name])

    branches = {
        "igamc_series, x <= 0.5": entered("_igamc_series", lambda a, x, r: x <= 0.5),
        "igamc_series, 0.5 < x <= 1.1": entered("_igamc_series", lambda a, x, r: 0.5 < x <= 1.1),
        "igamc_series, a = 1": entered("_igamc_series", lambda a, x, r: a == 1),
        "lgam1p_taylor's zeta": bool(calls["_zeta"]),
        "igam_series, x <= 1.1": entered("_igam_series", lambda a, x, r: x <= 1.1),
        "igam_series, 1.1 < x < a": entered("_igam_series", lambda a, x, r: 1.1 < x < a),
        "igam_series, underflow": entered("_igam_series", lambda a, x, r: r == 0),
        "continued fraction, x >= a": entered("_igamc_continued_fraction", lambda a, x, r: r > 0),
        "continued fraction, underflow": entered("_igamc_continued_fraction", lambda a, x, r: r == 0),
        "Temme, 20 < a < 200": entered("_asymptotic_series", lambda a, x, r: 20 < a < 200),
        "Temme, a > 200": entered("_asymptotic_series", lambda a, x, r: a > 200),
        "erf, negative": entered("_erfc", lambda a, r: -1 < a < 0),
        "erf, positive": entered("_erfc", lambda a, r: 0 < a < 1),
        "erfc, a <= -1": entered("_erfc", lambda a, r: a <= -1),
        "erfc, a >= 1": entered("_erfc", lambda a, r: a >= 1),
        "igam_fac, lgam": entered("_igam_fac", lambda a, x, r: abs(a - x) > 0.4 * a and r > 0),
        "igam_fac, underflow": entered("_igam_fac", lambda a, x, r: r == 0),
        "igam_fac, Lanczos, a <= 1": entered("_igam_fac", lambda a, x, r: abs(a - x) <= 0.4 * a and a <= 1),
        "igam_fac, Lanczos, a > 1": entered("_igam_fac", lambda a, x, r: abs(a - x) <= 0.4 * a and 1 < a < 200 > x),
        "igam_fac, a >= 200": entered("_igam_fac", lambda a, x, r: abs(a - x) <= 0.4 * a and a >= 200),
        "igam_fac, a < 200 <= x": entered("_igam_fac", lambda a, x, r: abs(a - x) <= 0.4 * a and a < 200 <= x),
        "lgam, x < 13": entered("lgam", lambda x, r: x < 13),
        "lgam, 13 <= x < 1000": entered("lgam", lambda x, r: 13 <= x < 1000),
        "lgam, x >= 1000": entered("lgam", lambda x, r: x >= 1000),
    }
    assert [name for name, hit in branches.items() if not hit] == []
