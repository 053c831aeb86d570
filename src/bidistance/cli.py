"""Command-line front end.

Subcommands: ``bidist`` (pair distribution of a code file), ``pe`` (exact
or simulated decoder error probability), ``bounds`` (the three upper
bounds), ``sweep`` (CSV of bound/error curves over a q grid), ``construct``
(catalog codes with metadata), and ``scheme`` (intersection numbers).

Exit codes: 0 success, 2 usage/parse errors, 3 domain errors (channel
regime violations, enumeration caps, arithmetic failures, failed allocations).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path

from . import __version__
from .algebra import (dual_code, generator_from_code, golay_code, is_projective,
                      trace_code_27_6)
from .bounds import ahb_union_bounds, weight_class_bounds
from .channel import (DEFAULT_EXHAUSTIVE_CAP, ChannelParams, CapExceeded,
                      RegimeError, exact_error_probabilities, exact_error_probability,
                      monte_carlo_error_probabilities, monte_carlo_error_probability,
                      parse_probability)
from .core import Code, ParseError, bidistance_distribution
from .designs import (catalog_design, sbibd_ahb, sbibd_codes,
                      scheme_from_three_weight, three_weight_ahb, two_weight_ahb,
                      with_zero_word)

#: most q steps a sweep takes, which bounds the memory its grid and columns hold
MAX_STEPS = 1 << 16
#: most Monte Carlo trials a command takes: its up-front draw of 2**27 int64 indices is 1 GiB
MAX_TRIALS = 1 << 27
#: method -> its values at each channel of a list, from (code, channels, arguments): the
#: bounds' reports, the exact Fractions and the Monte Carlo estimates, one call each;
#: looked up at call time, so a rebound module global takes effect
COLUMNS = {
    "ahb": lambda code, grid, args: ahb_union_bounds(bidistance_distribution(code), grid),
    "cr_discrepancy": lambda code, grid, args: weight_class_bounds(code, grid, False),
    "cr_symmetric": lambda code, grid, args: weight_class_bounds(code, grid, True),
    "exact": lambda code, grid, args: exact_error_probabilities(code, grid, args.cap),
    "monte_carlo": lambda code, grid, args: monte_carlo_error_probabilities(
        code, grid, args.trials, args.seed),
}
#: the columns that are bounds, which the bounds command offers
BOUNDS = ("ahb", "cr_discrepancy", "cr_symmetric")


def _fraction_json(value: Fraction) -> dict:
    return {"fraction": f"{value.numerator}/{value.denominator}",
            "decimal": float(value)}


def _json(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte: str.join lays out each container,
    an int in one is formatted in place, and any other scalar is json's C encoder."""
    if isinstance(value, str):
        return _json_str(value)
    inner = pad + "  "
    if isinstance(value, dict):
        items, ends = [f"{_json_str(k)}: {v if type(v) is int else _json(v, inner)}"
                       for k, v in value.items()], "{}"
    elif isinstance(value, (list, tuple)):
        items, ends = [f"{v if type(v) is int else _json(v, inner)}" for v in value], "[]"
    else:
        return json.dumps(value)
    return f"{ends[0]}{inner}{(',' + inner).join(items)}{pad}{ends[1]}" if items else ends


def _weight_pairs(dist: tuple[int, ...]) -> list[list[int]]:
    return [[w, c] for w, c in enumerate(dist) if c]


def _cmd_bidist(args: argparse.Namespace) -> int:
    code = Code.from_file(args.code)
    dist = bidistance_distribution(code)
    if args.format == "json":
        print(_json(dist.to_json_dict()))
    else:
        print(f"{'d10':>4} {'d01':>4} {'count':>12}")
        for (a, b), c in zip(dist.pairs.tolist(), dist.counts.tolist()):
            print(f"{a:>4} {b:>4} {c:>12}")
    return 0


def _check_sampling(args: argparse.Namespace) -> None:
    if not 1 <= args.trials <= MAX_TRIALS:
        raise ParseError(f"--trials must be between 1 and {MAX_TRIALS}")
    if args.seed < 0:
        raise ParseError("--seed must be non-negative")


def _cmd_pe(args: argparse.Namespace) -> int:
    _check_sampling(args)
    code = Code.from_file(args.code)
    params = ChannelParams.from_decimals(args.p, args.q)
    payload = {
        "code": str(args.code),
        "length": code.n,
        "size": len(code),
        "p": _fraction_json(params.p),
        "q": _fraction_json(params.q),
    }
    if args.mode == "exact":
        value = exact_error_probability(code, params, cap=args.cap)
        payload["method"] = "exact"
        payload["error_probability"] = _fraction_json(value)
    else:
        estimate, stderr = monte_carlo_error_probability(
            code, params, trials=args.trials, seed=args.seed)
        payload.update({
            "method": "monte_carlo",
            "estimate": estimate,
            "standard_error": stderr,
            "trials": args.trials,
            "seed": args.seed,
        })
    print(_json(payload))
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    code = Code.from_file(args.code)
    params = ChannelParams.from_decimals(args.p, args.q)
    methods = _parse_method_list(args.methods, BOUNDS)
    reports = [COLUMNS[method](code, [params], args)[0] for method in methods]
    print(_json({
        "code": str(args.code),
        "p": _fraction_json(params.p),
        "q": _fraction_json(params.q),
        "bounds": [r.to_json_dict() for r in reports],
    }))
    return 0


def _parse_method_list(text: str, allowed: tuple[str, ...]) -> list[str]:
    methods = [m.strip() for m in text.split(",") if m.strip()]
    if not methods:
        raise ParseError("no methods requested")
    bad = [m for m in methods if m not in allowed]
    if bad:
        raise ParseError(f"unknown methods {bad}; choose from {list(allowed)}")
    # keep canonical column order, drop duplicates
    return [m for m in allowed if m in methods]


def _cmd_sweep(args: argparse.Namespace) -> int:
    _check_sampling(args)
    code = Code.from_file(args.code)
    p, q_from, q_to = (parse_probability(t) for t in (args.p, args.q_from, args.q_to))
    methods = _parse_method_list(args.methods, tuple(COLUMNS))
    if not 2 <= args.steps <= MAX_STEPS:
        raise ParseError(f"steps must be between 2 and {MAX_STEPS}")
    if not p <= q_from < q_to < Fraction(1, 2):
        raise RegimeError(f"sweep needs p <= q_from < q_to < 1/2, got p={p}, "
                          f"q_from={q_from}, q_to={q_to}")
    if "exact" in methods and code.n > args.cap:
        print(f"warning: dropping exact column, n={code.n} exceeds cap {args.cap}",
              file=sys.stderr)
        methods.remove("exact")
    grid = [ChannelParams(p, q_from + (q_to - q_from) * Fraction(i, args.steps - 1))
            for i in range(args.steps)]
    rows = zip([float(params.q) for params in grid],
               *(map(float, COLUMNS[m](code, grid, args)) for m in methods))
    lines = [",".join(["q"] + methods)] + [",".join(f"{x:.10g}" for x in row) for row in rows]
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"wrote {args.out} ({len(lines) - 1} rows)", file=sys.stderr)
    return 0


def _construct_catalog(name: str) -> tuple[Code, dict]:
    if name == "golay":
        code = golay_code().codewords()
        return code, {"weight_distribution": _weight_pairs(code.weight_distribution())}
    if name in ("golay-dual", "trace-27-6"):
        # two nonzero weights give the graph's closed form, three the scheme's
        gen = (dual_code(golay_code()) if name == "golay-dual"
               else generator_from_code(trace_code_27_6()))
        code = gen.codewords()
        dist = code.weight_distribution()
        weights = [w for w in range(1, code.n + 1) if dist[w]]
        metadata = {"weight_distribution": _weight_pairs(dist), "projective": is_projective(gen)}
        if len(weights) == 3:
            scheme = scheme_from_three_weight(code)
            metadata["scheme"] = scheme.to_json_dict()
            nonzero = three_weight_ahb(code.n, weights, scheme)
        else:
            nonzero = two_weight_ahb(code.n, gen.k, *weights, *(dist[w] for w in weights))
        return code, {**metadata, "ahb": with_zero_word(nonzero, dist).to_json_dict(),
                      "ahb_nonzero": nonzero.to_json_dict()}
    if name.startswith("sbibd:"):
        try:
            _, triple, family = name.split(":")
            # int("") refuses what int() alone reads: signs, spaces, _ and other digits
            v, k, lam, family = (int(f if f.isascii() and f.isdigit() else "")
                                 for f in [*triple.split(","), family])
        except ValueError:
            raise ParseError(
                f"bad catalog name {name!r}; expected sbibd:<v>,<k>,<lambda>:<family>"
            ) from None
        design = catalog_design(v, k, lam)
        code = sbibd_codes(design, family)
        ahb = sbibd_ahb(v, k, lam, family)
        return code, {
            "design": {**design.to_json_dict(), "family": family},
            "weight_distribution": _weight_pairs(code.weight_distribution()),
            "ahb": ahb.to_json_dict(),
        }
    raise ParseError(
        f"unknown catalog name {name!r}; known: golay, golay-dual, trace-27-6, "
        "sbibd:<v>,<k>,<lambda>:<family>")


def _cmd_construct(args: argparse.Namespace) -> int:
    code, metadata = _construct_catalog(args.name)
    code.to_file(args.out)
    print(_json({"name": args.name, "out": str(args.out), "length": code.n, "size": len(code),
                 **metadata}))
    return 0


def _cmd_scheme(args: argparse.Namespace) -> int:
    code = Code.from_file(args.code)
    scheme = scheme_from_three_weight(code)
    dist = code.weight_distribution()
    print(_json({
        "code": str(args.code),
        "weights": [w for w in range(1, code.n + 1) if dist[w]],
        **scheme.to_json_dict(),
    }))
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="bidistance",
        description="Directional Hamming statistics of binary codes and "
                    "decoding error bounds for asymmetric channels.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_code(p: argparse.ArgumentParser) -> None:
        p.add_argument("--code", required=True, help="code file, one 0/1 word per line")

    def add_pq(p: argparse.ArgumentParser) -> None:
        p.add_argument("-p", required=True, help="0->1 crossover probability (decimal)")
        p.add_argument("-q", required=True, help="1->0 crossover probability (decimal)")

    def add_decoding(p: argparse.ArgumentParser) -> None:
        p.add_argument("--trials", type=int, default=100_000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--cap", type=int, default=DEFAULT_EXHAUSTIVE_CAP,
                       help="length cap for the exhaustive sweep")

    p_bidist = sub.add_parser("bidist", help="pair distribution of a code file")
    add_code(p_bidist)
    p_bidist.add_argument("--format", choices=("json", "table"), default="json")
    p_bidist.set_defaults(func=_cmd_bidist)

    p_pe = sub.add_parser("pe", help="decoder error probability")
    add_code(p_pe)
    add_pq(p_pe)
    p_pe.add_argument("--mode", choices=("exact", "mc"), default="exact")
    add_decoding(p_pe)
    p_pe.set_defaults(func=_cmd_pe)

    p_bounds = sub.add_parser("bounds", help="upper bounds on the error probability")
    add_code(p_bounds)
    add_pq(p_bounds)
    p_bounds.add_argument("--methods", default=",".join(BOUNDS))
    p_bounds.set_defaults(func=_cmd_bounds)

    p_sweep = sub.add_parser("sweep", help="CSV of curves over a q grid")
    add_code(p_sweep)
    p_sweep.add_argument("-p", required=True)
    p_sweep.add_argument("--q-from", required=True)
    p_sweep.add_argument("--q-to", required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--methods", default=",".join([*BOUNDS, "exact"]))
    p_sweep.add_argument("--out", required=True)
    add_decoding(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_construct = sub.add_parser("construct", help="write a catalog code with metadata")
    p_construct.add_argument("name", help="golay | golay-dual | trace-27-6 | "
                                          "sbibd:<v>,<k>,<lambda>:<family>")
    p_construct.add_argument("--out", required=True, help="path for the code file")
    p_construct.set_defaults(func=_cmd_construct)

    p_scheme = sub.add_parser("scheme", help="intersection numbers of a three-weight code")
    add_code(p_scheme)
    p_scheme.set_defaults(func=_cmd_scheme)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CapExceeded, ValueError, ArithmeticError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ParseError) else 3


if __name__ == "__main__":
    sys.exit(main())
