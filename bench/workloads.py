"""The benchmark's workloads: seeded job lists and the checks on their output.

A job is one or more ``bidistance`` CLI calls run back to back and timed
as a unit.  Every input is made here from the run's seed, written as a
code file, and handed to the CLI; the checks read the CLI's output and
the code files and compare them with ``oracles``, which shares no code
with the package.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracles

#: a CLI call's exit code, standard output and standard error
Result = tuple[int, str, str]


@dataclass
class Job:
    """CLI calls timed as one job, and the check that judges their output.

    ``check(results, rerun)`` returns a list of problems; ``rerun`` runs
    the same calls again, untimed, for the determinism checks.
    """

    kind: str
    calls: list[list[str]]
    check: Callable[[list[Result], Callable[[], list[Result]]], list[str]]


@dataclass
class Plan:
    """A workload's job list plus its untimed check-only probes."""

    jobs: list[Job]
    probes: list[Job] = field(default_factory=list)


def write_code(path: Path, n: int, words: list[int]) -> None:
    path.write_text("".join(oracles.word_text(n, w) + "\n" for w in words))


def decimal(value: float, digits: int = 4) -> str:
    return f"{value:.{digits}f}"


def _json(results: list[Result], index: int = 0) -> dict:
    return json.loads(results[index][1])


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(abs(want), 1e-300)


def _worked_example_probes(work: Path) -> list[Job]:
    """CLI ``pe`` and ``bounds`` on the paper's two example codes."""
    p, q = "0.1", "0.15"
    probes = []
    for index, lines in enumerate((oracles.EXAMPLE_C1, oracles.EXAMPLE_C2)):
        path = work / f"example-c{index + 1}.code"
        path.write_text("".join(line + "\n" for line in lines))
        pe_want, ahb_want = oracles.EXAMPLE_PE[index], oracles.EXAMPLE_AHB[index]
        pe_tol = 5e-5 if index == 0 else 5e-4  # the paper prints 0.101

        def check(results, rerun, pe_want=pe_want, ahb_want=ahb_want, pe_tol=pe_tol):
            problems = []
            pe = float(Fraction(_json(results, 0)["error_probability"]["fraction"]))
            if abs(pe - pe_want) > pe_tol:
                problems.append(f"example Pe {pe} != {pe_want}")
            bounds = {b["method"]: b["value"] for b in _json(results, 1)["bounds"]}
            want = {"ahb": ahb_want, "cr_discrepancy": oracles.EXAMPLE_CR,
                    "cr_symmetric": oracles.EXAMPLE_CR}
            for method, value in want.items():
                if abs(bounds.get(method, math.nan) - value) > 5e-5:
                    problems.append(f"example {method} {bounds.get(method)} != {value}")
            return problems

        probes.append(Job("example", [
            ["pe", "--code", str(path), "-p", p, "-q", q],
            ["bounds", "--code", str(path), "-p", p, "-q", q]], check))
    return probes


# --- bound-sweep -----------------------------------------------------------

#: (length, size, weight classes, q steps), each slot near 0.2-0.4 s on the
#: reference machine; n <= 64 takes the packed pair loop, n > 64 the wide one
SWEEP_SLOTS = [
    (24, 320, 3, 6), (32, 256, 4, 6), (32, 320, 8, 4), (40, 256, 6, 5),
    (48, 224, 5, 5), (48, 288, 10, 3), (56, 192, 8, 5), (64, 256, 6, 4),
    (64, 192, 16, 3), (72, 128, 6, 5), (80, 160, 8, 4), (96, 128, 10, 4),
    (112, 96, 12, 4), (128, 112, 8, 3),
]
SMOKE_SWEEP_SLOTS = [(12, 24, 3, 3), (70, 16, 4, 3)]
#: small codes whose exact error probability every bound must dominate
PROBE_SWEEP_SLOTS = [(6, 4), (7, 6), (8, 8), (9, 10), (10, 12), (10, 16)]
SWEEP_METHODS = "ahb,cr_discrepancy,cr_symmetric"


def spread_code(rng: random.Random, n: int, size: int, classes: int) -> list[int]:
    """Distinct random words whose weights take ``classes`` fixed values.

    The weights are evenly spaced around n/2, so the retained-mass cost of
    a slot does not depend on the seed; words are shared out evenly.
    """
    lo, hi = max(1, n // 4), min(n - 1, (3 * n) // 4)
    weights = sorted({lo + round(k * (hi - lo) / max(1, classes - 1))
                      for k in range(classes)})
    words: set[int] = set()
    ordered = []
    while len(ordered) < size:
        w = weights[len(ordered) % len(weights)]
        x = sum(1 << i for i in rng.sample(range(n), w))
        if x not in words:
            words.add(x)
            ordered.append(x)
    return ordered


def sweep_channel(slot: int) -> tuple[str, str, str]:
    """p and the q range of a slot; fixed, so a seed changes only the codes
    and the cost of a slot's bound loops stays put."""
    p = 0.010 + 0.004 * (slot % 12)
    q_from = p + 0.002 * (slot % 5)
    q_to = q_from + 0.10 + 0.03 * (slot % 6)
    return decimal(p, 3), decimal(q_from, 3), decimal(q_to, 3)


def _sweep_call(path: Path, out: Path, steps: int, channel: tuple[str, str, str],
                methods: str) -> tuple[list[str], Fraction, list[Fraction]]:
    """CLI arguments of a sweep, with its p and the q grid it must print."""
    p_text, qf_text, qt_text = channel
    q_from, q_to = Fraction(qf_text), Fraction(qt_text)
    grid = [q_from + (q_to - q_from) * Fraction(i, steps - 1) for i in range(steps)]
    argv = ["sweep", "--code", str(path), "-p", p_text, "--q-from", qf_text,
            "--q-to", qt_text, "--steps", str(steps), "--methods", methods,
            "--out", str(out)]
    return argv, Fraction(p_text), grid


def _sweep_job(path: Path, out: Path, steps: int, channel: tuple[str, str, str],
               repeat: bool) -> Job:
    argv, p, grid = _sweep_call(path, out, steps, channel, SWEEP_METHODS)

    def check(results, rerun):
        problems = []
        text = out.read_text()
        lines = text.splitlines()
        if lines[0] != "q," + SWEEP_METHODS:
            return [f"sweep header {lines[0]!r}"]
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        if len(rows) != steps:
            return [f"sweep has {len(rows)} rows, want {steps}"]
        _, file_words = oracles.read_code(path)
        counts = oracles.pair_counts(file_words)
        for q, row in zip(grid, rows):
            if not _close(row[0], float(q), 1e-9):
                problems.append(f"q column {row[0]} != {float(q)}")
            want = min(1.0, float(oracles.ahb_bound(counts, len(file_words),
                                                    oracles.PairwiseError(p, q))))
            if not _close(row[1], want, 1e-9):
                problems.append(f"ahb {row[1]} != oracle {want} at q={float(q)}")
            problems += [f"bound {v} outside [0, 1] at q={float(q)}"
                         for v in row[1:] if not 0.0 <= v <= 1.0]
        if repeat:
            rerun()
            if out.read_text() != text:
                problems.append("repeated sweep wrote a different CSV")
        return problems

    return Job("sweep", [argv], check)


def bound_sweep(rng: random.Random, work: Path, rounds: int, smoke: bool) -> Plan:
    slots = SMOKE_SWEEP_SLOTS if smoke else SWEEP_SLOTS
    jobs = []
    for r in range(rounds):
        for s, (n, size, classes, steps) in enumerate(slots):
            words = spread_code(rng, n, size, classes)
            path = work / f"sweep-{r}-{s}.code"
            write_code(path, n, words)
            # every third job is run twice in the check phase
            jobs.append(_sweep_job(path, work / f"sweep-{r}-{s}.csv", steps,
                                   sweep_channel(s), repeat=len(jobs) % 3 == 0))
    probes = _worked_example_probes(work)
    for s, (n, size) in enumerate(PROBE_SWEEP_SLOTS):
        words = rng.sample(range(1 << n), size)
        path = work / f"probe-{s}.code"
        write_code(path, n, words)
        probes.append(_dominance_probe(path, work / f"probe-{s}.csv", n, words,
                                       sweep_channel(s)))
    return Plan(jobs, probes)


def _dominance_probe(path: Path, out: Path, n: int, words: list[int],
                     channel: tuple[str, str, str]) -> Job:
    """Every bound is at least the exact error probability on a small code."""
    argv, p, grid = _sweep_call(path, out, 4, channel, SWEEP_METHODS + ",exact")

    def check(results, rerun):
        problems = []
        rows = [[float(x) for x in line.split(",")]
                for line in out.read_text().splitlines()[1:]]
        if len(rows) != len(grid) or any(len(row) != 5 for row in rows):
            return [f"sweep with the exact column has the wrong shape: {rows}"]
        for q, row in zip(grid, rows):
            exact = float(oracles.mld_error_probability(n, words, p, q))
            if not _close(row[4], exact, 1e-9):
                problems.append(f"exact column {row[4]} != oracle {exact}")
            for method, bound in zip(SWEEP_METHODS.split(","), row[1:4]):
                if bound < exact * (1 - 1e-9):
                    problems.append(f"{method} {bound} below exact Pe {exact} "
                                    f"at q={float(q)}")
        return problems

    return Job("dominance", [argv], check)


# --- decode ------------------------------------------------------------------

#: Slot times are spread evenly over about 0.17-0.33 s on the reference
#: machine, exact and Monte Carlo slots alternating along that range, so
#: the median job is not on the edge between two clusters of job times.
#: exact sweeps: (length, size, q/p); cost grows as 2**n * size
EXACT_SLOTS = [(12, 87, 1.0), (13, 43, 1.02), (14, 32, 1.2),
               (12, 119, 1.5), (13, 64, 3.0), (14, 38, 2.0)]
#: Monte Carlo: (core length, size, padded length, trials, q/p)
MC_SLOTS = [(10, 16, 24, 70000, 1.0), (10, 32, 32, 43000, 1.05),
            (11, 48, 40, 27000, 1.5), (12, 64, 48, 20000, 2.5),
            (12, 32, 56, 38000, 1.0), (11, 64, 64, 12000, 4.0)]
SMOKE_EXACT_SLOTS = [(8, 8, 1.0), (9, 12, 2.0)]
SMOKE_MC_SLOTS = [(6, 8, 20, 2000, 1.0), (7, 8, 64, 2000, 3.0)]


def decode_channel(base: float, ratio: float, slot: int, round_: int) -> tuple[str, str]:
    """Fixed per slot and round, and distinct across them, so that every
    job builds its own score table.  ratio 1.0 is the symmetric channel."""
    p = decimal(base + 0.015 * slot + 0.0001 * round_)
    q = p if ratio == 1.0 else decimal(float(p) * ratio)
    return p, q


def padded_code(rng: random.Random, core_n: int, n: int, core: list[int]) -> list[int]:
    """Embed a core code in length n: shared constant bits fill the other
    positions and every coordinate is moved by a seeded permutation.

    Positions where all codewords agree scale every likelihood alike, so
    the padded code decodes exactly as its core does.
    """
    perm = rng.sample(range(n), n)
    const = rng.getrandbits(n - core_n) << core_n
    out = []
    for c in core:
        full = c | const
        out.append(sum(1 << perm[i] for i in range(n) if full >> i & 1))
    return out


def _exact_job(path: Path, n: int, words: list[int], p: str, q: str) -> Job:
    def check(results, rerun):
        got = Fraction(_json(results)["error_probability"]["fraction"])
        want = oracles.mld_error_probability(n, words, Fraction(p), Fraction(q))
        return [] if got == want else [f"exact Pe {got} != oracle {want}"]

    return Job("exact", [["pe", "--code", str(path), "-p", p, "-q", q,
                          "--mode", "exact"]], check)


def _mc_job(path: Path, core_n: int, core: list[int], trials: int, seed: int,
            p: str, q: str, repeat: bool) -> Job:
    argv = ["pe", "--code", str(path), "-p", p, "-q", q, "--mode", "mc",
            "--trials", str(trials), "--seed", str(seed)]

    def check(results, rerun):
        problems = []
        payload = _json(results)
        est, stderr = payload["estimate"], payload["standard_error"]
        exact = float(oracles.mld_error_probability(core_n, core, Fraction(p), Fraction(q)))
        sigma = math.sqrt(exact * (1 - exact) / trials)
        if abs(est - exact) > 5 * sigma:
            problems.append(f"MC estimate {est} is more than 5 standard errors "
                            f"({sigma:.3g}) from exact {exact}")
        if not _close(stderr, math.sqrt(est * (1 - est) / trials), 1e-9):
            problems.append(f"standard error {stderr} does not match the estimate")
        if repeat and rerun()[0][1] != results[0][1]:
            problems.append("repeated Monte Carlo run gave different output")
        return problems

    return Job("mc", [argv], check)


def decode(rng: random.Random, work: Path, rounds: int, smoke: bool) -> Plan:
    exact_slots = SMOKE_EXACT_SLOTS if smoke else EXACT_SLOTS
    mc_slots = SMOKE_MC_SLOTS if smoke else MC_SLOTS
    jobs = []
    for r in range(rounds):
        for s, ((n, size, e_ratio), (core_n, m_size, m_n, trials, m_ratio)) in enumerate(
                zip(exact_slots, mc_slots)):
            words = rng.sample(range(1 << n), size)
            path = work / f"exact-{r}-{s}.code"
            write_code(path, n, words)
            jobs.append(_exact_job(path, n, words, *decode_channel(0.02, e_ratio, s, r)))
            core = rng.sample(range(1 << core_n), m_size)
            path = work / f"mc-{r}-{s}.code"
            write_code(path, m_n, padded_code(rng, core_n, m_n, core))
            jobs.append(_mc_job(path, core_n, core, trials, rng.randrange(1 << 30),
                                *decode_channel(0.0275, m_ratio, s, r), repeat=s % 2 == 0))
    return Plan(jobs, _worked_example_probes(work))


# --- construct -----------------------------------------------------------------

#: the shipped (v, k, lambda) difference-set designs, each with four families
CATALOG_DESIGNS = [(7, 3, 1), (11, 5, 2), (13, 4, 1), (15, 7, 3), (23, 11, 5)]
CATALOG = (["golay", "golay-dual", "trace-27-6"]
           + [f"sbibd:{v},{k},{lam}:{f}" for v, k, lam in CATALOG_DESIGNS
              for f in (1, 2, 3, 4)])
SMOKE_CATALOG = ["golay-dual", "trace-27-6", "sbibd:7,3,1:2", "sbibd:13,4,1:4"]
#: weight distribution of the dual Golay [23,11] code and of the Golay code
GOLAY_DUAL_WEIGHTS = [[0, 1], [8, 506], [12, 1288], [16, 253]]
GOLAY_WEIGHTS = [[0, 1], [7, 253], [8, 506], [11, 1288], [12, 1288],
                 [15, 506], [16, 253], [23, 1]]


def _weights(n: int, words: list[int]) -> list[list[int]]:
    counts = [0] * (n + 1)
    for w in words:
        counts[w.bit_count()] += 1
    return [[w, c] for w, c in enumerate(counts) if c]


def _srg_parameters(words: list[int], distance: int) -> tuple[int, ...] | None:
    """(v, k, lambda, mu) of the graph joining words at the given distance."""
    adj = [{j for j, y in enumerate(words) if (x ^ y).bit_count() == distance}
           for x in words]
    degrees = {len(a) for a in adj}
    lams, mus = set(), set()
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            (lams if j in adj[i] else mus).add(len(adj[i] & adj[j]))
    if len(degrees) != 1 or len(lams) != 1 or len(mus) != 1:
        return None
    return len(words), degrees.pop(), lams.pop(), mus.pop()


def _catalog_problems(name: str, payload: dict, path: Path) -> list[str]:
    n, words = oracles.read_code(path)
    problems = []
    if (payload["length"], payload["size"]) != (n, len(words)):
        problems.append(f"{name}: length/size {payload['length']}/{payload['size']} "
                        f"!= file {n}/{len(words)}")
    weights = _weights(n, words)
    if payload["weight_distribution"] != weights:
        problems.append(f"{name}: weight distribution differs from the file's")
    if "ahb" in payload:
        counts = oracles.pair_counts(words)
        got = {(e["d10"], e["d01"]): e["count"] for e in payload["ahb"]["entries"]}
        if got != counts:
            problems.append(f"{name}: closed-form ahb differs from the pair count")
    if name == "golay" and weights != GOLAY_WEIGHTS:
        problems.append(f"golay: weights {weights}")
    if name == "golay-dual":
        if weights != GOLAY_DUAL_WEIGHTS:
            problems.append(f"golay-dual: weights {weights}")
        if payload["scheme"]["valences"] != [506, 1288, 253]:
            problems.append(f"golay-dual: valences {payload['scheme']['valences']}")
    if name == "trace-27-6":
        # the graph on the 64 words whose edges join words at the weight
        # held by 36 of them
        w = next((w for w, c in weights if c == 36), None)
        srg = _srg_parameters(words, w) if w else None
        if srg != (64, 36, 20, 20):
            problems.append(f"trace-27-6: graph parameters {srg}")
    return problems


def construct(rng: random.Random, work: Path, rounds: int, smoke: bool) -> Plan:
    names = SMOKE_CATALOG if smoke else CATALOG
    jobs = []
    for r in range(rounds):
        order = rng.sample(names, len(names))
        paths = [work / f"catalog-{r}-{i}.code" for i in range(len(order))]
        calls = [["construct", name, "--out", str(path)] for name, path in zip(order, paths)]

        def check(results, rerun, order=order, paths=paths):
            problems = []
            for name, path, (_, stdout, _) in zip(order, paths, results):
                problems += _catalog_problems(name, json.loads(stdout), path)
            return problems

        jobs.append(Job("catalog", calls, check))
    return Plan(jobs)


#: workload name -> (plan builder, nominal seconds of one round on the
#: reference machine; a run makes round(seconds / nominal) rounds)
WORKLOADS = {
    "bound-sweep": (bound_sweep, 4.0),
    "decode": (decode, 3.0),
    "construct": (construct, 3.7),
}
