"""Output checks that recompute each expected answer without curverig.

Every check takes the parsed JSON report of a command that exited 0 and
returns a list of problems; an empty list means the output is correct.  The recomputations use plain integers or numpy floats
built here, never the library under test.
"""

from __future__ import annotations

import math
import random

import numpy as np

RAND_DENOM = 2 ** 32  # documented in the README: random params are k / 2^32


def rand_numerators(seed: int, n: int) -> list[int]:
    """The k of the documented `rand:seed:n` scheme, t = lo + (hi-lo) k/2^32."""
    rng = random.Random(seed)
    seen: set = set()
    while len(seen) < n:
        seen.add(rng.randrange(1, RAND_DENOM))
    return sorted(seen)


# -- exact distinct-value counts -----------------------------------------------


def exact_count_parabola(seed: int, n: int) -> int:
    """Distinct |g(a)-g(b)|^2 on (t, t^2), t = k/M, as integers scaled by M^4."""
    M = RAND_DENOM
    ks = rand_numerators(seed, n)
    keys = set()
    for i, a in enumerate(ks):
        for b in ks[i + 1:]:
            d = a - b
            keys.add(d * d * M * M + (a * a - b * b) ** 2)
    return len(keys)


def exact_count_rational_circle(seed: int, n: int) -> int:
    """Distinct chords on ((1-t^2)/(1+t^2), 2t/(1+t^2)) on (-100, 100).

    On the unit circle D = 2 - 2 <g(a), g(b)>, so distinct D values are the
    distinct reduced fractions of the dot product, with t = p/M.
    """
    M = RAND_DENOM
    ps = [200 * k - 100 * M for k in rand_numerators(seed, n)]
    MM = M * M
    keys = set()
    for i, a in enumerate(ps):
        for b in ps[i + 1:]:
            num = (MM - a * a) * (MM - b * b) + 4 * a * b * MM
            den = (MM + a * a) * (MM + b * b)
            g = math.gcd(num, den)
            keys.add((num // g, den // g))
    return len(keys)


EXACT_COUNTERS = {"parabola": exact_count_parabola,
                  "rational_circle": exact_count_rational_circle}


# -- tolerance-mode counts -----------------------------------------------------


def _merged_count(values: np.ndarray, rel_eps: float, err) -> tuple[int, int]:
    """Bounds on the README's sorted relative-gap merge count.

    A gap is a boundary when it exceeds rel_eps * max(|a|, |b|).  err(v)
    bounds the library's rounding error of a value v >= 0, so gaps within
    2 err of the threshold may fall either way; the true count lies in
    [lo, hi].
    """
    v = np.sort(values)
    e = err(v)
    gaps = np.diff(v)
    thresh = rel_eps * np.maximum(np.abs(v[:-1]), np.abs(v[1:])) + 1e-300
    slack = e[:-1] + e[1:]
    lo = 1 + int(np.count_nonzero(gaps > thresh + slack))
    hi = 1 + int(np.count_nonzero(gaps > thresh - slack))
    return lo, hi


def tol_count_bounds(curve: str, seed: int, n: int, rel_eps: float) -> tuple[int, int]:
    """[lo, hi] for a tolerance count of rand:seed:n on a builtin curve."""
    ks = np.array(rand_numerators(seed, n), dtype=np.float64)
    i, j = np.triu_indices(n, k=1)
    if curve == "parabola":  # domain (0, 1): t = k/M, exact in binary
        t = ks / RAND_DENOM
        dx, dy = t[i] - t[j], t[i] * t[i] - t[j] * t[j]
        vals = dx * dx + dy * dy
        return _merged_count(vals, rel_eps, lambda v: 8e-16 * v)
    if curve.startswith("circular_helix("):  # domain (-1000, 1000)
        c = float(curve[len("circular_helix("):-1])
        delta = 2000.0 * (ks[i] - ks[j]) / RAND_DENOM  # exact
        s = np.sin(0.5 * delta)
        vals = 4.0 * s * s + c * c * delta * delta
        # the library rounds t = -1000 + 2000 k/M (|t| <= 1000) before cos/sin
        return _merged_count(vals, rel_eps, lambda v: 1e-12 * np.sqrt(v) + 1e-14 * v)
    raise ValueError(f"no tolerance recomputation for {curve!r}")


def least_squares_slope(samples) -> float:
    x = [math.log(n) for n, _ in samples]
    y = [math.log(c) for _, c in samples]
    mx, my = sum(x) / len(x), sum(y) / len(y)
    return sum((a - mx) * (b - my) for a, b in zip(x, y)) / \
        sum((a - mx) ** 2 for a in x)


# -- checks, one per command kind ----------------------------------------------


def check_exact_count(doc, curve: str, seed: int, n: int) -> list:
    r = doc["result"]
    want = EXACT_COUNTERS[curve](seed, n)
    out = []
    if r["count"] != want:
        out.append(f"count {r['count']} != recomputed {want}")
    if r["n_pairs"] != n * (n - 1) // 2 or r["n_points"] != n:
        out.append("n_points/n_pairs disagree with N")
    return out


def check_line_arith(doc, n: int) -> list:
    c = doc["result"]["count"]
    return [] if c == n - 1 else [f"line arith count {c} != N-1 = {n - 1}"]


def check_exponent(doc, counter, sizes: list) -> list:
    """counter(n) -> exact count or (lo, hi) bounds for size n."""
    r = doc["result"]
    out = []
    samples = [tuple(s) for s in r["samples"]]
    if [s[0] for s in samples] != sizes:
        out.append(f"sample sizes {[s[0] for s in samples]} != {sizes}")
    for n, c in samples:
        want = counter(n)
        lo, hi = want if isinstance(want, tuple) else (want, want)
        if not lo <= c <= hi:
            out.append(f"N={n}: count {c} outside recomputed [{lo}, {hi}]")
    slope = least_squares_slope(samples)
    if abs(slope - r["slope"]) > 1e-9 * max(1.0, abs(slope)):
        out.append(f"slope {r['slope']} != least squares {slope}")
    return out


def check_tol_count(doc, curve: str, seed: int, n: int, rel_eps: float) -> list:
    c = doc["result"]["count"]
    lo, hi = tol_count_bounds(curve, seed, n, rel_eps)
    return [] if lo <= c <= hi else [f"count {c} outside recomputed [{lo}, {hi}]"]


def check_angles(doc, n: int) -> list:
    c = doc["result"]["count"]
    return [] if c == n // 2 else [f"angles:{n} count {c} != floor(N/2) = {n // 2}"]


def check_elekes(doc, n: int, pairs: int, curve_degree: int, method: str) -> list:
    """Incidence: every xi_pq meets the n-2 product points exactly once each.
    Admissibility: two Elekes curves of degree <= 2 deg(gamma) meet at most
    (2 deg gamma)^2 times (Bezout); curve_degree is None for a
    transcendental curve, which has no such bound."""
    inc, adm = doc["result"]["incidence"], doc["result"]["admissibility"]
    out = []
    if inc["n_failures"] != 0:
        out.append(f"{inc['n_failures']} incidence failures")
    if inc["checked"] != n * (n - 1) * (n - 2):
        out.append(f"incidence checked {inc['checked']} != n(n-1)(n-2)")
    if not inc["min_incident"] == inc["max_incident"] == n - 2:
        out.append(f"incident counts {inc['min_incident']}..{inc['max_incident']}"
                   f" != n-2 = {n - 2}")
    bezout = (2 * curve_degree) ** 2 if curve_degree else None
    if bezout is not None and adm["max_pairwise_intersections"] > bezout:
        out.append(f"max intersections {adm['max_pairwise_intersections']}"
                   f" exceeds Bezout bound {bezout}")
    n_curves = n * (n - 1)
    if adm["n_curves"] != n_curves:
        out.append(f"n_curves {adm['n_curves']} != n(n-1)")
    if adm["pairs_checked"] != min(pairs, n_curves * (n_curves - 1) // 2):
        out.append(f"pairs_checked {adm['pairs_checked']} != requested {pairs}")
    if adm["detection_method"] != method:
        out.append(f"detection method {adm['detection_method']} != {method}")
    return out


def check_degeneracy(doc, degenerate: bool, tau_grid: int) -> list:
    r = doc["result"]
    out = []
    if r["is_degenerate_candidate"] != degenerate:
        out.append(f"degeneracy verdict {r['is_degenerate_candidate']} != {degenerate}")
    if r["tau_grid_size"] != tau_grid:
        out.append("tau grid size differs from the request")
    return out


def check_flex(doc) -> list:
    """A triangle on a circle rotates: nullity >= 1, exact == numerical."""
    r = doc["result"]
    out = []
    if r.get("exact_nullity") != r["numerical_nullity"]:
        out.append(f"exact nullity {r.get('exact_nullity')} != numerical "
                   f"{r['numerical_nullity']}")
    if r["numerical_nullity"] < 1:
        out.append("circle triangle reported rigid")
    return out


def check_motion(doc, steps: int, flexible: bool) -> list:
    """Circles and helices carry rigid motions (drift < 1e-7); the parabola
    does not (drift > 1e-4)."""
    r = doc["result"]
    out = []
    if r["aborted"] or r["steps_completed"] != steps:
        out.append(f"trace stopped at {r['steps_completed']}/{steps}")
    if flexible and not r["max_drift"] < 1e-7:
        out.append(f"drift {r['max_drift']:.3e} not below 1e-7")
    if not flexible and not r["max_drift"] > 1e-4:
        out.append(f"drift {r['max_drift']:.3e} not above 1e-4")
    return out


def check_classify(doc, helix: bool, algebraic) -> list:
    r = doc["result"]
    out = []
    if r["helix_candidate"] != helix:
        out.append(f"helix verdict {r['helix_candidate']} != {helix}")
    if algebraic is not None and r["structural"]["is_algebraic"] != algebraic:
        out.append(f"algebraic verdict {r['structural']['is_algebraic']} != {algebraic}")
    return out


def check_simplicity(doc, passed: bool, failing: tuple = ()) -> list:
    r = doc["result"]
    out = []
    if r["passed"] != passed:
        out.append(f"simplicity verdict {r['passed']} != {passed}")
    bad = tuple(c["index"] for c in r["conditions"] if not c["passed"])
    if bad != failing:
        out.append(f"failing conditions {bad} != {failing}")
    return out


def check_bound(doc, np_: int, nxi: int, k: float) -> list:
    """Smallest Delta with k max(Nxi^(2/3) Delta^(4/3), Nxi, Delta^2) >=
    (Np - 2) Nxi, in closed form."""
    lhs = (np_ - 2) * nxi
    if k * nxi >= lhs:
        want = 1.0
    else:
        want = min((lhs / (k * nxi ** (2 / 3))) ** 0.75, math.sqrt(lhs / k))
        want = max(want, 1.0)
    got = doc["result"]["delta_star"]
    return [] if abs(got - want) <= 1e-9 * want else [f"delta_star {got} != {want}"]

