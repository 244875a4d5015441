"""Command-line interface.

Subcommands: seq (Fibonacci-divisor tables), eval (special functions at a
point), field (sampled flow fields to CSV/JSON), simulate (vortex dynamics to
trajectory CSV), verify (invariant suites).

Exit codes: 0 success, 1 usage or parse error, 2 runtime physics event
(vortex collision or boundary escape), 3 verification failure.

Each command imports only the code it runs: `seq` and the scalar functions of
`eval` start without numpy, and only `verify` loads the oracle checks.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

from goldcalc.ring import PHI, lucas

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PHYSICS = 2
EXIT_VERIFY = 3

# one grammar for both parts: digits with an optional fraction, or a fraction
# alone, then an optional exponent; a bare sign before "i" means 1
_NUMBER = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(rf"^(?P<re>[+-]?{_NUMBER})(?:(?P<im>[+-](?:{_NUMBER})?)i)?$")


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' / 'a-bi' (no spaces), or a bare real."""
    m = _COMPLEX_RE.match(text.strip())
    if not m:
        raise argparse.ArgumentTypeError(f"cannot parse complex value {text!r}")
    re_part = float(m.group("re"))
    im_text = m.group("im")
    if im_text is None:
        return complex(re_part, 0.0)
    if im_text in ("+", "-"):
        im_text += "1"
    return complex(re_part, float(im_text))


def parse_grid(text: str) -> tuple[int, int]:
    m = re.match(r"^(\d+)x(\d+)$", text.strip())
    if not m:
        raise argparse.ArgumentTypeError(f"grid must look like 50x50, got {text!r}")
    return int(m.group(1)), int(m.group(2))


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes a word that starts with "-" for an option unless it
        # matches this pattern; no option here starts with a digit, so
        # "-0.72-0.93i" and "-.5" are values, as "-5" already was
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    # argparse exits with status 2 on usage errors; the contract here says 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="goldcalc",
                description="Golden-ratio calculus and golden-annulus vortex flows")
    sub = p.add_subparsers(dest="command", required=True)

    seq = sub.add_parser("seq", help="print Fibonacci-divisor sequences")
    seq.add_argument("--k", type=int, required=True, help="hierarchy level (nonzero)")
    seq.add_argument("--n-max", type=int, required=True, help="largest index to print")

    ev = sub.add_parser("eval", help="evaluate a special function at a point")
    ev.add_argument("--fn", required=True,
                    choices=["golden-exp", "golden-cos", "golden-sin", "e-phi",
                             "E-phi", "e-phi-product", "ln-phi", "phi-number",
                             "wm", "wm-modulation", "pure-flow"])
    ev.add_argument("--x", type=parse_complex, default=None,
                    help="argument, as a+bi or a bare real")
    ev.add_argument("--k", type=int, default=1)
    ev.add_argument("--n", type=int, default=None, help="index for phi-number")
    ev.add_argument("--variant", choices=["e", "E"], default="e")
    ev.add_argument("--form", choices=["series", "pole_sum"], default="pole_sum")
    ev.add_argument("--d", type=float, default=0.5, help="fractal parameter in (0,1)")
    ev.add_argument("--trunc", type=int, default=60)

    fl = sub.add_parser("field", help="sample a vortex flow field onto a grid file")
    fl.add_argument("--z0", type=parse_complex, required=True, help="vortex position a+bi")
    fl.add_argument("--gamma", type=float, required=True, help="circulation")
    fl.add_argument("--k", type=int, default=1, help="annulus level (positive)")
    fl.add_argument("--grid", type=parse_grid, required=True, help="resolution WxH")
    fl.add_argument("--out", required=True, help="output path (.csv or .json)")
    fl.add_argument("--exclusion", type=float, default=1e-6,
                    help="drop grid points within this distance of an image")

    sim = sub.add_parser("simulate", help="integrate vortex motion")
    sim.add_argument("--init", required=True,
                     help="JSON file: array of {x, y, gamma} records")
    sim.add_argument("--dt", type=float, required=True)
    sim.add_argument("--steps", type=int, required=True)
    sim.add_argument("--out", required=True, help="trajectory CSV path")
    sim.add_argument("--record-every", type=int, default=1,
                     help="write steps 0, r, 2r, ... and the last step (r >= 1)")

    ver = sub.add_parser("verify", help="run invariant suites")
    ver.add_argument("--suite", default="all", help="suite name, or all")
    ver.add_argument("--seed", type=int, default=12345,
                     help="seed for randomized checks")
    return p


def _fmt_complex(z: complex) -> str:
    return f"{z.real!r}{z.imag:+}i"


def _log10_fib_divisor(n: int, k: int) -> float:
    """log10 |F_{kn} / F_k| for n >= 1 by Binet's formula,
    a (n - 1) log10(phi) + log10((1 - r^(a n)) / (1 - r^a)), a = |k|,
    r = -1/phi^2; inf when a n does not fit a float."""
    a, r = abs(k), -1 / PHI**2
    try:
        return a * (n - 1) * math.log10(PHI) + math.log10((1 - r ** (a * n)) / (1 - r**a))
    except OverflowError:
        return math.inf


def run_seq(args) -> int:
    if args.k == 0:
        print("goldcalc seq: error: --k must be nonzero", file=sys.stderr)
        return EXIT_USAGE
    if args.n_max < 1:
        print("goldcalc seq: error: --n-max must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    # str() refuses an int of more than this many digits (0: no limit, as
    # before Python 3.10.7); the last value is the longest, with
    # floor(log10) + 1 digits, and the margin covers the rounding of its log
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and _log10_fib_divisor(args.n_max, args.k) + 1e-9 >= limit:
        print(f"goldcalc seq: error: --n-max {args.n_max} at --k {args.k} reaches a value of more "
              f"than {limit} digits, Python's limit for printing an int", file=sys.stderr)
        return EXIT_USAGE
    # F_{k(n+1)}/F_k = L_k F_{kn}/F_k - (-1)^k F_{k(n-1)}/F_k from F_0/F_k = 0, F_k/F_k = 1
    lk, odd = lucas(args.k), args.k % 2
    prev, cur = 0, 1
    for _ in range(args.n_max):
        print(cur)
        prev, cur = cur, lk * cur + prev if odd else lk * cur - prev
    return EXIT_OK


def run_eval(args) -> int:
    from goldcalc.functions import E_phi, e_phi, e_phi_product, golden_exp, golden_trig, \
        ln_phi, phi_number

    try:
        if args.fn == "phi-number":
            if args.n is None or args.n < 1:
                print("goldcalc eval: error: phi-number needs --n >= 1", file=sys.stderr)
                return EXIT_USAGE
            val = phi_number(args.n, args.k)
            print(f"{val}  (= {val.to_real()!r})")
            return EXIT_OK
        if args.x is None:
            print("goldcalc eval: error: this function needs --x", file=sys.stderr)
            return EXIT_USAGE
        x = args.x
        if args.fn in ("golden-cos", "golden-sin", "wm", "wm-modulation"):
            if x.imag:
                raise ValueError(f"--fn {args.fn} takes a real --x, got {_fmt_complex(x)}")
            x = x.real
        if args.fn == "golden-exp":
            out = golden_exp(x, args.k, args.variant)
        elif args.fn == "golden-cos":
            out = golden_trig(x, args.k, "cos")
        elif args.fn == "golden-sin":
            out = golden_trig(x, args.k, "sin")
        elif args.fn == "e-phi":
            out = e_phi(x)
        elif args.fn == "E-phi":
            out = E_phi(x)
        elif args.fn == "e-phi-product":
            out = e_phi_product(x)
        elif args.fn == "ln-phi":
            out = ln_phi(x, args.k, args.form)
        elif args.fn == "wm":
            from goldcalc.hydro import wm_fractal
            out = wm_fractal(x, args.d, args.trunc)
        elif args.fn == "wm-modulation":
            from goldcalc.hydro import wm_modulation
            out = wm_modulation(x, args.d, args.trunc)
        elif args.fn == "pure-flow":
            from goldcalc.hydro import pure_golden_flow
            f, psi, v = pure_golden_flow(x)
            print(f"F   = {_fmt_complex(f)}")
            print(f"psi = {psi!r}")
            print(f"V   = {_fmt_complex(v)}")
            return EXIT_OK
        else:  # pragma: no cover
            raise AssertionError(args.fn)
    except ValueError as exc:
        print(f"goldcalc eval: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if isinstance(out, complex):
        print(_fmt_complex(out))
    else:
        print(repr(out))
    return EXIT_OK


def run_field(args) -> int:
    import numpy as np

    from goldcalc import hydro

    vortices = [(args.z0, args.gamma)]
    try:
        annulus = hydro.AnnulusSpec(args.k)
        grid = hydro.field_grid(annulus, vortices, args.grid, exclusion=args.exclusion)
    except ValueError as exc:
        print(f"goldcalc field: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not all(np.isfinite(c).all() for c in grid.columns):
        print(f"goldcalc field: error: non-finite samples; {args.out} not written",
              file=sys.stderr)
        return EXIT_PHYSICS
    try:
        if args.out.endswith(".json"):
            grid.to_json(args.out)
        else:
            grid.to_csv(args.out)
    except OSError as exc:
        print(f"goldcalc field: error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    lo, hi = (grid.psi.min(), grid.psi.max()) if len(grid) else (0.0, 0.0)
    print(f"wrote {len(grid)} samples to {args.out}  psi in [{lo:.6g}, {hi:.6g}]")
    # boundary diagnostic: psi should be constant on each wall
    if args.gamma != 0:
        wall = np.exp(1j * np.linspace(0, 2 * math.pi, 64, endpoint=False))
        for name, radius in (("inner", 1.0), ("outer", annulus.outer_radius)):
            std = float(np.std(hydro.flow(annulus, vortices, radius * wall)[0]))
            print(f"boundary psi std ({name}): {std:.3e}")
            if not math.isfinite(std):
                print("goldcalc field: error: non-finite boundary psi", file=sys.stderr)
                return EXIT_PHYSICS
    return EXIT_OK


def run_simulate(args) -> int:
    import numpy as np

    from goldcalc import dynamics

    if args.record_every < 1:
        print("goldcalc simulate: error: --record-every must be >= 1",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        state = dynamics.load_initial_conditions(args.init)
    except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"goldcalc simulate: error: cannot load {args.init}: {exc}",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        cfg = dynamics.IntegratorConfig(args.dt, args.steps)
    except ValueError as exc:
        print(f"goldcalc simulate: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        traj = dynamics.integrate(state, cfg)
    except (dynamics.VortexEscapeError, dynamics.VortexCollisionError) as exc:
        print(f"goldcalc simulate: aborted: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except ValueError as exc:
        print(f"goldcalc simulate: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        traj.to_csv(args.out, every=args.record_every)
    except OSError as exc:
        print(f"goldcalc simulate: error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    total_t = float(traj.times[-1])
    print(f"integrated {state.n} vortices for {args.steps} steps "
          f"(t = {total_t!r}); wrote {args.out}")
    # measured mean rotation rate per vortex (angle unwrapped along the path)
    angles = np.unwrap(np.angle(traj.positions), axis=0)
    for i, omega in enumerate((angles[-1] - angles[0]) / total_t):
        print(f"vortex {i}: measured omega = {omega:.8f}")
    return EXIT_OK


def run_verify(args) -> int:
    from goldcalc import verify

    suites = (*verify.SUITE_NAMES, "all")
    if args.suite not in suites:
        print(f"goldcalc verify: error: --suite {args.suite!r} is not one of "
              f"{', '.join(suites)}", file=sys.stderr)
        return EXIT_USAGE
    if args.seed < 0:
        print("goldcalc verify: error: --seed must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    results = verify.run_suite(args.suite, seed=args.seed)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        if not r.passed:
            failures += 1
        line = f"[{status}] {r.name:<{width}}"
        if r.detail:
            line += f"  {r.detail}"
        print(line)
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "seq": run_seq,
        "eval": run_eval,
        "field": run_field,
        "simulate": run_simulate,
        "verify": run_verify,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
