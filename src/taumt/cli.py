"""Command-line interface.

Three subcommands: "tau" streams tau coefficients, "verify" recomputes a
named family of claims and exits 0 only if everything matches, and "mt"
emits a Mazur-Tate element with its invariants.  Output is plain text,
JSON, or CSV, deterministic byte for byte for a fixed invocation.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys

from . import fixtures
from .arith import INFINITY, DirichletCharacter, _prime_factors
from .boundary import eisenstein_boundary_symbol, phi9_symbol
from .cusps import Cusp
from .iwasawa import fit_global_unit, invariants, mazur_tate, to_T_basis
from .mansym import alpha_N, delta_symbol
from .qseries import admissible_sweep, tau_expansion, verify_serre_congruences, verify_tau_congruence

CANONICAL_EXPONENT = {3: 2, 5: 2, 7: 4}
# the largest Mazur-Tate level p^n accepted; every documented range fits
MAX_LEVEL = 3**9
# the largest tau --n accepted: 10^6 terms take about 12 s and 290 MB
MAX_TAU_N = 10**6


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taumt",
        description="Exact tau congruences, boundary symbols, and Mazur-Tate invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tau = sub.add_parser("tau", help="stream tau(1..N), optionally reduced")
    p_tau.add_argument("--n", type=int, required=True, help=f"number of coefficients, at most {MAX_TAU_N}")
    p_tau.add_argument("--mod", type=int, default=None, help="reduce modulo this integer")
    p_tau.add_argument("--out", default=None, help="write to a file instead of stdout")

    p_verify = sub.add_parser("verify", help="recompute a family of claims")
    p_verify.add_argument("theorem", choices=list(FAMILIES))
    # the per-family flags default to None so that "not given" stays visible
    # to cmd_verify, which fills each family's own defaults from FAMILIES
    p_verify.add_argument("--p", type=int, action="append", help="restrict to this prime (repeatable)")
    p_verify.add_argument("--nmax", type=int, help="largest Mazur-Tate level")
    p_verify.add_argument("--bound", type=int, help="coefficient bound for scans")
    p_verify.add_argument("--samples", type=int, help="random divisor pairs for congmodsymb")
    p_verify.add_argument("--seed", type=int, help="seed for sampled checks")
    p_verify.add_argument("--format", choices=["json", "csv"], default="json")
    p_verify.add_argument("--fixtures", default=None, help="override the fixture directory")
    p_verify.add_argument("--out", default=None)

    p_mt = sub.add_parser("mt", help="emit a Mazur-Tate element and its invariants")
    p_mt.add_argument("--source", choices=["delta", "eis", "phi9"], required=True)
    p_mt.add_argument("--p", type=int, required=True)
    p_mt.add_argument("--n", type=int, required=True)
    p_mt.add_argument("--m", type=int, default=None, help="coefficient precision p^m")
    p_mt.add_argument("--a", type=int, default=None, help="Teichmuller exponent for --source eis")
    p_mt.add_argument("--format", choices=["json", "csv"], default="json")
    p_mt.add_argument("--out", default=None)
    return parser


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _records_text(records: list[dict], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(records, sort_keys=True, separators=(",", ": "), indent=1) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    keys = sorted({k for r in records for k in r})
    writer.writerow(keys)
    for r in records:
        writer.writerow([r.get(k, "") for k in keys])
    return buf.getvalue()


def _record(claim: str, computed, expected, passed: bool, **extra) -> dict:
    rec = {"claim": claim, "computed": computed, "expected": expected, "pass": bool(passed)}
    rec.update(extra)
    return rec


def _eisenstein_symbol(p: int, exponent: int, m: int):
    """The boundary symbol of (omega_p^exponent, trivial) with values in Z/p^m."""
    psi = DirichletCharacter.teichmuller_power(p, exponent, m)
    return eisenstein_boundary_symbol(psi, DirichletCharacter.trivial())


def _check_level(parser, p: int, n: int) -> None:
    # p >= 3 makes p^10 > MAX_LEVEL, so capping n decides a huge --n at once
    if p ** min(n, 10) > MAX_LEVEL:
        parser.error(f"level {p}^{n} is above the largest supported level 3^9 = {MAX_LEVEL}")


def _jsonable(x):
    if x == INFINITY:
        return "inf"
    return x


def cmd_tau(args) -> int:
    tau = tau_expansion(args.n)
    values = tau[1:]
    if args.mod:
        values = [v % args.mod for v in values]
    _emit("".join(f"{v}\n" for v in values), args.out)
    return 0


def _verify_A(args) -> tuple[list[dict], None]:
    bound = args.bound
    tau = tau_expansion(bound)
    records = []
    for p in args.p:
        rep = verify_tau_congruence(p, 2, CANONICAL_EXPONENT[p], 0, bound, tau)
        records.append(_record(str(rep), "holds" if rep.ok else list(rep.first_failure), "holds", rep.ok, p=p))
    sweep_bound = min(bound, 1000)
    for p in args.p:
        for rep in admissible_sweep(p, 20, sweep_bound, tau):
            records.append(_record(str(rep), "holds" if rep.ok else list(rep.first_failure), "holds", rep.ok, p=p))
    return records, None


def _verify_serre(args) -> tuple[list[dict], None]:
    records = []
    # one call, so tau is expanded once for every congruence row
    for rep in verify_serre_congruences(args.bound, congruences=fixtures.load_serre_congruences(args.fixtures)):
        claim = f"tau(l) = l^{rep.e1} + l^{rep.e2} mod {rep.modulus} for primes l <= {args.bound}"
        records.append(_record(claim, "holds" if rep.ok else rep.first_failure, "holds", rep.ok))
    return records, None


def _random_cusp(rng: random.Random) -> Cusp:
    while True:
        den = rng.randrange(0, 60)
        num = rng.randrange(-60, 61)
        if num or den:
            try:
                return Cusp.make(num, den)
            except ValueError:
                continue


def _verify_congmodsymb(args) -> tuple[list[dict], None]:
    records = []
    rng = random.Random(args.seed)
    for p in args.p:
        table = fixtures.load_divisor_values(f"s{p}_values.csv", args.fixtures)
        alpha = alpha_N(delta_symbol(), p, normalize=True)
        ours = [alpha.pair(Cusp.parse(r), Cusp.parse(s)) for r, s, _ in table]
        printed = [v for _, _, v in table]
        unit = fit_global_unit(ours, printed, p, 1)
        records.append(_record(
            f"alpha_{p}(delta symbol) matches the {len(table)} tabulated residues up to a unit",
            ours, printed, unit is not None, p=p, unit=unit))
        if unit is None:
            continue
        phi = _eisenstein_symbol(p, CANONICAL_EXPONENT[p], 1)
        c_p = {5: 2, 7: 1}[p] * unit % p
        bad = None
        for _ in range(args.samples):
            r, s = _random_cusp(rng), _random_cusp(rng)
            lhs = alpha.pair(r, s)
            rhs = c_p * phi.difference(r, s) % p
            if lhs != rhs:
                bad = (str(r), str(s), lhs, rhs)
                break
        records.append(_record(
            f"alpha_{p}(delta)({{r}}-{{s}}) = c * (phi_{p}(r) - phi_{p}(s)) mod {p} on {args.samples} random pairs",
            bad or "holds", "holds", bad is None, p=p, unit=unit, c=c_p))
    return records, None


def _verify_appendix(args) -> tuple[list[dict], str]:
    rows = fixtures.load_table1(args.fixtures)
    alpha = alpha_N(delta_symbol(), 9, normalize=True)
    phi9 = phi9_symbol(args.fixtures)
    ours_alpha = []
    ours_phi = []
    for r, s, _, _ in rows:
        rc, sc = Cusp.parse(r), Cusp.parse(s)
        ours_alpha.append(alpha.pair(rc, sc))
        ours_phi.append(phi9.difference(rc, sc))
    records = []
    unit = fit_global_unit(ours_alpha, [a for _, _, a, _ in rows], 3, 2)
    ok_count = 0
    for (r, s, alpha_printed, phi_printed), got_a, got_phi in zip(rows, ours_alpha, ours_phi):
        ok = got_phi == phi_printed and unit is not None and got_a == unit * alpha_printed % 9
        ok_count += ok
        records.append(_record(
            f"{{{r}}} - {{{s}}}", [got_a, got_phi], [alpha_printed, phi_printed], ok, unit=unit))
    records.insert(0, _record(
        f"appendix table: {len(rows)} rows, alpha column up to one global unit",
        f"{ok_count}/{len(rows)}", f"{len(rows)}/{len(rows)}", ok_count == len(rows), unit=unit))
    # csv output mirrors the table itself: divisor pair and the two columns,
    # the alpha column scaled back by the fitted unit so a passing run prints
    # the same numbers a reader would transcribe
    inv_unit = pow(unit, -1, 9) if unit else 1
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["divisor", "alpha", "phi9"])
    for (r, s, _, _), got_a, got_phi in zip(rows, ours_alpha, ours_phi):
        writer.writerow([f"{{{r}}} - {{{s}}}", got_a * inv_unit % 9, got_phi])
    return records, buf.getvalue()


def _invariants_record(claim: str, theta, expected: tuple) -> dict:
    inv = invariants(theta)
    computed = (inv.mu, inv.lam)
    return _record(claim, list(map(_jsonable, computed)), list(expected), computed == expected, p=theta.p, n=theta.n)


def _verify_B(args) -> tuple[list[dict], None]:
    """Boundary route: mu = 0 and lambda = p^n - 1 for the level-p Eisenstein symbol."""
    records = []
    for p in args.p:
        phi = _eisenstein_symbol(p, CANONICAL_EXPONENT[p], 1)
        for n in range(1, args.nmax + 1):
            records.append(_invariants_record(
                f"lambda(theta_{{{n},eis}}) = {p}^{n} - 1", mazur_tate(phi, p, n, 1), (0, p**n - 1)))
    return records, None


def _verify_C(args) -> tuple[list[dict], None]:
    """Delta route: the same lambda, and theta_Delta = c_p * theta_eis mod p coefficientwise."""
    records = []
    for p in args.p:
        phi = _eisenstein_symbol(p, CANONICAL_EXPONENT[p], 1)
        for n in range(1, args.nmax + 1):
            theta_delta = mazur_tate(delta_symbol(), p, n, 1)
            theta_eis = mazur_tate(phi, p, n, 1)
            records.append(_invariants_record(
                f"lambda(theta_{{{n},Delta}}) = {p}^{n} - 1", theta_delta, (0, p**n - 1)))
            unit = fit_global_unit(list(theta_delta.coeffs), list(theta_eis.coeffs), p, 1)
            records.append(_record(
                f"theta_{{{n},Delta}} = c * theta_{{{n},eis}} mod {p}",
                [unit], ["some unit"], unit is not None, p=p, n=n))
    return records, None


def _verify_D(args) -> tuple[list[dict], None]:
    """p = 3 at precision 9 by both routes: mu = 1 and lambda = 3^n - 2."""
    records = []
    for n in range(1, args.nmax + 1):
        for label, source in (("Delta", delta_symbol()), ("phi9", phi9_symbol(args.fixtures))):
            records.append(_invariants_record(
                f"(mu, lambda)(theta_{{{n},{label}}}) = (1, 3^{n} - 2) mod 9",
                mazur_tate(source, 3, n, 2), (1, 3**n - 2)))
    return records, None


# name -> (function, the per-family flags it takes with their defaults).
# The default of --p is every prime the family supports; a flag missing
# from an entry is a usage error for that family.  Each function returns
# its records and, for a family whose csv is not the record list, that csv.
FAMILIES = {
    "A": (_verify_A, {"p": (3, 5, 7), "bound": 10000}),
    "B": (_verify_B, {"p": (5, 7), "nmax": 2}),
    "C": (_verify_C, {"p": (5, 7), "nmax": 2}),
    "D": (_verify_D, {"p": (3,), "nmax": 2}),
    "serre": (_verify_serre, {"bound": 10000}),
    "congmodsymb": (_verify_congmodsymb, {"p": (5, 7), "samples": 200, "seed": 0}),
    "appendix": (_verify_appendix, {}),
}
FAMILY_FLAGS = ("p", "nmax", "bound", "samples", "seed")
_AT_LEAST = {"nmax": 1, "bound": 2, "samples": 1}


def cmd_verify(args, parser) -> int:
    run, takes = FAMILIES[args.theorem]
    for flag in FAMILY_FLAGS:
        value = getattr(args, flag)
        if value is None:
            setattr(args, flag, takes.get(flag))
        elif flag not in takes:
            parser.error(f"verify {args.theorem} does not take --{flag}")
        elif flag in _AT_LEAST and value < _AT_LEAST[flag]:
            parser.error(f"--{flag} must be at least {_AT_LEAST[flag]}")
    if args.p is not None:
        if len(set(args.p)) < len(args.p):
            parser.error("--p names the same prime twice")
        if not set(args.p) <= set(takes["p"]):
            parser.error(f"verify {args.theorem} supports --p in {set(takes['p'])}")
        if args.nmax is not None:
            _check_level(parser, max(args.p), args.nmax)
    if args.fixtures is not None and not os.path.isdir(args.fixtures):
        parser.error(f"--fixtures {args.fixtures} is not a directory")
    records, table_csv = run(args)
    if args.format == "csv" and table_csv is not None:
        _emit(table_csv, args.out)
    else:
        _emit(_records_text(records, args.format), args.out)
    failures = [r for r in records if not r["pass"]]
    if failures:
        sys.stderr.write(f"FAILED: {failures[0]['claim']}\n")
        return 1
    return 0


def cmd_mt(args, parser) -> int:
    p, n = args.p, args.n
    if args.a is not None and args.source != "eis":
        parser.error(f"--source {args.source} does not take --a")
    if p < 3 or p % 2 == 0 or n < 1:
        parser.error("need an odd prime --p and --n >= 1")
    _check_level(parser, p, n)
    if args.m is not None and args.m < 1:
        parser.error("--m must be at least 1")
    if args.source == "delta":
        if p not in (3, 5, 7):
            parser.error("--source delta supports p in {3, 5, 7}")
        m = args.m or (2 if p == 3 else 1)
        theta = mazur_tate(delta_symbol(), p, n, m)
    elif args.source == "phi9":
        m = args.m or 2
        if p != 3 or m > 2:
            parser.error("--source phi9 lives in Z/9: it needs --p 3 and --m at most 2")
        theta = mazur_tate(phi9_symbol(), 3, n, m)
    else:
        # delta and phi9 accept fixed primes; only eis needs the O(sqrt p) test
        if _prime_factors(p) != [p]:
            parser.error("--source eis needs a prime --p")
        m = args.m or 1
        exponent = args.a if args.a is not None else CANONICAL_EXPONENT.get(p)
        if exponent is None:
            parser.error(f"no default Teichmuller exponent for p={p}; pass --a")
        try:
            phi = _eisenstein_symbol(p, exponent, m)
        except ValueError as exc:
            parser.error(str(exc))
        theta = mazur_tate(phi, p, n, m)
    tpoly = to_T_basis(theta)
    inv = invariants(tpoly)
    payload = {
        "claim": f"mazur-tate source={args.source} p={p} n={n} m={m}",
        "p": p,
        "n": n,
        "m": m,
        "coeffs_group_basis": list(theta.coeffs),
        "coeffs_T_basis": list(tpoly.coeffs),
        "mu": _jsonable(inv.mu),
        "lambda": _jsonable(inv.lam),
        "precision_ok": inv.precision_ok,
        "unit": None,
    }
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["index", "group_basis", "T_basis"])
        for i, (c, a) in enumerate(zip(theta.coeffs, tpoly.coeffs)):
            writer.writerow([i, c, a])
        writer.writerow(["mu", _jsonable(inv.mu), ""])
        writer.writerow(["lambda", _jsonable(inv.lam), ""])
        text = buf.getvalue()
    _emit(text, args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # every subcommand takes --out; a missing directory fails before any work
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        parser.error(f"no such file or directory: {args.out}")
    if args.out and os.path.isdir(args.out):
        parser.error(f"--out {args.out} is a directory")
    try:
        if args.command == "tau":
            if not 1 <= args.n <= MAX_TAU_N:
                parser.error(f"--n must be between 1 and {MAX_TAU_N}")
            if args.mod is not None and args.mod < 1:
                parser.error("--mod must be at least 1")
            return cmd_tau(args)
        if args.command == "verify":
            return cmd_verify(args, parser)
        return cmd_mt(args, parser)
    except OSError as exc:
        # a fixture table that cannot be read, or an --out that cannot be written
        if exc.filename is None:
            raise
        parser.error(f"{exc.strerror.lower()}: {exc.filename}")


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
