"""Independent correctness checks for job outputs.

Nothing here imports recdet.  verify-rational terms are recomputed from
the job's recurrence description modulo the prime 2^61 - 1; family-poly
output is rebuilt byte for byte from the closed forms of the classical
polynomials; det-crosscheck determinants are compared modulo the prime,
at a random point for the poly ring, against Gaussian elimination.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, factorial

P = 2**61 - 1


def _mod(num: int, den: int = 1) -> int:
    return num * pow(den, -1, P) % P


def _value_mod(text: str) -> int:
    """A rendered rational, "n" or "n/d", modulo P."""
    num, _, den = text.partition("/")
    return _mod(int(num), int(den) if den else 1)


# --- verify-rational -------------------------------------------------------

def _k_poly(cs: tuple[int, ...], k: int) -> int:
    return sum(c * k**d for d, c in enumerate(cs))


def verify_terms(desc: dict, n: int) -> list[int]:
    """The determinant-route values for k = 1..n, modulo P: a(k) for a
    fixed-order spec, a(k+1) for a full-history one."""
    if desc["mode"] == "full-history":
        (n0, nk, ni), (d0, dk, di) = desc["coeff"]
        a = [desc["initial"] % P]
        for k in range(1, n + 1):
            acc = 0
            for i in range(1, k + 1):
                p = _mod(n0 + nk * k + ni * i, d0 + dk * k + di * i)
                acc += p * a[i - 1]
            a.append(acc % P)
        return a[1:]
    m = len(desc["initials"])
    a = [v % P for v in desc["initials"]][:n]
    for k in range(m + 1, n + 1):
        acc = 0
        for i, (num, den) in enumerate(desc["coeffs"], start=1):
            acc += _mod(_k_poly(num, k), _k_poly(den, k)) * a[k - m + i - 2]
        a.append(acc % P)
    return a


def check_verify(ref: dict, out: str) -> str | None:
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        return "stdout is not JSON"
    if report.get("spec") != ref["name"]:
        return f"spec name {report.get('spec')!r} != {ref['name']!r}"
    if report.get("pass") is not True:
        return '"pass" is not true'
    checks = report.get("checks", [])
    if len(checks) != ref["n"]:
        return f"{len(checks)} checks for max-n {ref['n']}"
    for k, (c, want) in enumerate(zip(checks, verify_terms(ref["desc"], ref["n"])), 1):
        if c["k"] != k or c["ok"] is not True or c["direct"] != c["det"]:
            return f"check {k} reads {c}"
        if _value_mod(c["det"]) != want:
            return f"term {k} = {c['det']} differs from the recurrence"
    return None


# --- family-poly -----------------------------------------------------------

def _even_terms(n: int, coeff) -> list[Fraction]:
    """sum over m of coeff(m) * x^(n-2m), as a coefficient list."""
    cs = [Fraction(0)] * (n + 1)
    for m in range(n // 2 + 1):
        cs[n - 2 * m] = Fraction(coeff(m))
    return cs


def family_poly(name: str, n: int) -> list[Fraction]:
    """Closed form of the family's object at determinant size n."""
    if name == "fibonacci-poly":  # F_{n+1}
        return _even_terms(n, lambda m: comb(n - m, m))
    if name == "lucas-poly":  # L_n
        return _even_terms(n, lambda m: Fraction(n, n - m) * comb(n - m, m))
    if name == "chebyshev-t":
        return _even_terms(
            n,
            lambda m: Fraction(n * factorial(n - m - 1), 2 * factorial(m) * factorial(n - 2 * m))
            * (-1) ** m * 2 ** (n - 2 * m),
        )
    if name == "chebyshev-u":
        return _even_terms(n, lambda m: (-1) ** m * comb(n - m, m) * 2 ** (n - 2 * m))
    if name == "hermite":
        return _even_terms(
            n,
            lambda m: Fraction(factorial(n), factorial(m) * factorial(n - 2 * m))
            * (-1) ** m * 2 ** (n - 2 * m),
        )
    if name == "legendre":
        return _even_terms(
            n, lambda m: Fraction((-1) ** m * comb(n, m) * comb(2 * n - 2 * m, n), 2**n)
        )
    if name == "laguerre":
        return [Fraction((-1) ** j * comb(n, j), factorial(j)) for j in range(n + 1)]
    raise ValueError(f"no closed form for {name!r}")


def signed_sum(terms) -> str:
    """Text of a sum of (coefficient, variable) terms in the given order:
    zero terms skipped, unit magnitudes dropped before a variable, "0" for
    no terms.  The canonical value rendering and the DSL both read so."""
    parts = []
    for c, var in terms:
        if c == 0:
            continue
        mag = abs(c)
        piece = str(mag) if not var else (var if mag == 1 else f"{mag}*{var}")
        if not parts:
            parts.append(piece if c > 0 else f"-{piece}")
        else:
            parts.append(f" + {piece}" if c > 0 else f" - {piece}")
    return "".join(parts) or "0"


def render_poly(cs) -> str:
    """The canonical rendering of a polynomial, constant term first in cs."""
    return signed_sum(
        (cs[d], "" if d == 0 else ("x" if d == 1 else f"x^{d}")) for d in range(len(cs) - 1, -1, -1)
    )


def family_stdout(ref: dict) -> str:
    values = [
        {"n": k, "value": render_poly(family_poly(ref["family"], k))}
        for k in range(1, ref["n"] + 1)
    ]
    return json.dumps({"family": ref["family"], "values": values}, separators=(",", ":")) + "\n"


# --- det-crosscheck --------------------------------------------------------

def _det_mod(rows: list[list[int]]) -> int:
    a = [[v % P for v in row] for row in rows]
    n = len(a)
    det = 1
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        inv = pow(a[c][c], -1, P)
        det = det * a[c][c] % P
        for r in range(c + 1, n):
            f = a[r][c] * inv % P
            if f:
                row, top = a[r], a[c]
                for j in range(c, n):
                    row[j] = (row[j] - f * top[j]) % P
    return det % P


def poly_terms(text: str):
    """(sign, coefficient text, exponent) of each term of a canonical
    rendering, such as "-3/2*x^4 + x - 7"."""
    for term in text.replace(" - ", " + -").split(" + "):
        coeff, has_x, power = term.lstrip("-").partition("x")
        yield (-1 if term.startswith("-") else 1), coeff.rstrip("*") or "1", (
            int(power[1:] or 1) if has_x else 0
        )


def _poly_text_mod(text: str, t: int) -> int:
    """Evaluate a canonical polynomial rendering at t, modulo P."""
    return sum(sign * _value_mod(c) * pow(t, e, P) for sign, c, e in poly_terms(text)) % P


def check_det(ref: dict, out: str) -> str | None:
    text = out.rstrip("\n")
    if ref["ring"] == "rational":
        want, got = _det_mod(ref["rows"]), _value_mod(text)
    else:
        t = ref["point"]
        rows = [[sum(c * pow(t, d, P) for d, c in enumerate(v)) for v in row] for row in ref["rows"]]
        want, got = _det_mod(rows), _poly_text_mod(text, t)
    return None if want == got else f"determinant {text[:60]} differs modulo 2^61 - 1"


def check(workload: str, ref: dict, out: str) -> str | None:
    """None when out is the correct stdout of the job, else the reason."""
    if workload == "verify-rational":
        return check_verify(ref, out)
    if workload == "family-poly":
        want = family_stdout(ref)
        return None if out == want else "stdout differs from the closed forms"
    return check_det(ref, out)
