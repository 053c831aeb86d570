"""Spans around the package's public functions, recorded from outside it.

Each target function is replaced, in every module namespace that binds
it, by a wrapper that records the span (name, start, end, parent) and a
work count read from the call's arguments.  Rebinding every namespace
matters: ``bidistance.cli`` calls ``bidistance_distribution`` through its
own global, ``channel._decode_errors`` reaches ``mld_decode`` through a
module global, and ``popcount`` is bound in four modules.  Spans stay in
memory until the run ends; the per-layer metrics are derived from them.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Callable


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[index]


def _code_shape(args: tuple, kwargs: dict) -> tuple[int, int]:
    code = _arg(args, kwargs, 0, "code")
    return code.n, len(code)


def _words(args: tuple, kwargs: dict) -> int:
    return int(getattr(args[0], "size", 1))


def _trials(args: tuple, kwargs: dict) -> int:
    return int(_arg(args, kwargs, 2, "trials"))


def _sweep_words(args: tuple, kwargs: dict) -> int:
    return 1 << _arg(args, kwargs, 0, "g").n


#: (span name, defining module, attribute, work count from the arguments)
TARGETS: list[tuple[str, str, str, Callable | None]] = [
    ("cli.main", "cli", "main", None),
    ("core.pair_count", "core", "bidistance_distribution", _code_shape),
    ("core.parse", "core", "parse_code_text", None),
    ("bounds.min_discrepancy", "bounds", "min_discrepancy", _code_shape),
    ("bounds.min_discrepancy", "bounds", "min_symmetric_discrepancy", _code_shape),
    ("bounds.cr", "bounds", "discrepancy_bound", None),
    ("bounds.cr", "bounds", "symmetric_discrepancy_bound", None),
    ("bounds.ahb", "bounds", "ahb_union_bound", None),
    ("bounds.pep", "bounds", "pairwise_error_probability", None),
    ("channel.exact", "channel", "exact_error_probability", _code_shape),
    ("channel.mc", "channel", "monte_carlo_error_probability", _trials),
    ("channel.mld_decode", "channel", "mld_decode", None),
    ("bitops.popcount", "_bitops", "popcount", _words),
    ("algebra.span", "_bitops", "span_words", None),
    ("algebra.coset_sweep", "algebra", "coset_distribution_matrix", _sweep_words),
    ("algebra.field", "algebra", "trace_code_27_6", None),
    ("algebra.field", "algebra", "defining_set_code", None),
    ("designs.scheme", "designs", "scheme_from_three_weight", None),
    ("designs.closed_form", "designs", "two_weight_ahb", None),
    ("designs.closed_form", "designs", "three_weight_ahb", None),
    ("designs.closed_form", "designs", "sbibd_ahb", None),
    ("designs.closed_form", "designs", "with_zero_word", None),
    ("designs.closed_form", "designs", "srg_from_two_weight", None),
    ("designs.sbibd_codes", "designs", "sbibd_codes", None),
    ("designs.sbibd_codes", "designs", "catalog_design", None),
]


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.work: list = []
        self._stack = [-1]
        self.missing: list[str] = []

    def wrap(self, name: str, fn: Callable, work: Callable | None) -> Callable:
        names, starts, ends = self.names, self.starts, self.ends
        parents, works, stack = self.parents, self.work, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            works.append(work(args, kwargs) if work else 1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return traced

    def install(self, modules: dict[str, object]) -> None:
        """Rebind every target in each of ``modules`` (short name -> module)."""
        for name, home, attr, work in TARGETS:
            original = getattr(modules.get(home), attr, None)
            if original is None:
                self.missing.append(f"{home}.{attr}")
                continue
            wrapped = self.wrap(name, original, work)
            for module in modules.values():
                if vars(module).get(attr) is original:
                    setattr(module, attr, wrapped)

    def write(self, path, origin: float) -> None:
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                work = self.work[i]
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": self.parents[i],
                    "start": round(self.starts[i] - origin, 9),
                    "end": round(self.ends[i] - origin, 9),
                    "work": list(work) if isinstance(work, tuple) else work,
                }) + "\n")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer busy times, counts and ratios, keyed by metric name."""
        names, parents = self.names, self.parents
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        covered = [0.0] * len(dur)
        for i, parent in enumerate(parents):
            if parent >= 0:
                covered[parent] += dur[i]
        by_name: dict[str, list[int]] = {}
        for i, name in enumerate(names):
            by_name.setdefault(name, []).append(i)

        def spans(name: str) -> list[int]:
            return by_name.get(name, [])

        def under(i: int, name: str) -> bool:
            j = parents[i]
            while j >= 0:
                if names[j] == name:
                    return True
                j = parents[j]
            return False

        def busy(name: str) -> float:
            """Inclusive time of the spans not nested in one of their kind."""
            return sum(dur[i] for i in spans(name) if not under(i, name))

        def self_time(name: str) -> float:
            return sum(dur[i] - covered[i] for i in spans(name))

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        pair_shapes = [self.work[i] for i in spans("core.pair_count")]
        disc_shapes = [self.work[i] for i in spans("bounds.min_discrepancy")]
        exact_shapes = [self.work[i] for i in spans("channel.exact")]
        redecide = [i for i in spans("channel.mld_decode") if under(i, "channel.mc")]
        trials = sum(self.work[i] for i in spans("channel.mc"))
        pairs = sum(m * m for _, m in pair_shapes)
        words = sum(self.work[i] for i in spans("bitops.popcount"))
        return {
            "cli.self_s": (self_time("cli.main"), "s"),
            "cli.jobs": (len([i for i in spans("cli.main") if parents[i] < 0]), "count"),
            "core.pair_count_s": (busy("core.pair_count"), "s"),
            "core.pairs": (pairs, "count"),
            "core.pairs_per_s": (ratio(pairs, busy("core.pair_count")), "1/s"),
            "core.parse_s": (busy("core.parse"), "s"),
            "bounds.min_discrepancy_s": (busy("bounds.min_discrepancy"), "s"),
            "bounds.min_discrepancy_pairs": (sum(m * (m - 1) for _, m in disc_shapes), "count"),
            "bounds.retained_mass_s": (self_time("bounds.cr"), "s"),
            "bounds.ahb_s": (self_time("bounds.ahb"), "s"),
            "bounds.pep_s": (busy("bounds.pep"), "s"),
            "bounds.pep_calls": (len(spans("bounds.pep")), "count"),
            "channel.exact_s": (busy("channel.exact"), "s"),
            "channel.exact_received_words": (sum(1 << n for n, _ in exact_shapes), "count"),
            "channel.exact_scores": (sum((1 << n) * m for n, m in exact_shapes), "count"),
            "channel.mc_s": (self_time("channel.mc"), "s"),
            "channel.mc_trials": (trials, "count"),
            "channel.redecide_calls": (len(redecide), "count"),
            "channel.redecide_s": (sum(dur[i] for i in redecide), "s"),
            "channel.redecide_ratio": (ratio(len(redecide), trials), "ratio"),
            "bitops.popcount_s": (busy("bitops.popcount"), "s"),
            "bitops.popcount_calls": (len(spans("bitops.popcount")), "count"),
            "bitops.popcount_words": (words, "count"),
            "bitops.words_per_s": (ratio(words, busy("bitops.popcount")), "1/s"),
            "algebra.coset_sweep_s": (self_time("algebra.coset_sweep"), "s"),
            "algebra.coset_words": (sum(self.work[i] for i in spans("algebra.coset_sweep")),
                                    "count"),
            "algebra.span_s": (busy("algebra.span"), "s"),
            "algebra.field_s": (busy("algebra.field"), "s"),
            "designs.scheme_s": (self_time("designs.scheme"), "s"),
            "designs.closed_form_s": (busy("designs.closed_form"), "s"),
            "designs.sbibd_codes_s": (busy("designs.sbibd_codes"), "s"),
        }
