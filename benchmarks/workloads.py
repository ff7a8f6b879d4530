"""The three benchmark workloads.

Each workload turns the benchmark seed into rounds of items, runs one item
(the unit a latency is taken over), and checks its output. A round has the
same mix of rules, sizes and ranks in every run and at every seed; only the
matrix entries change with the seed. The cost of a trial spans three orders
of magnitude across that mix, so a freely drawn mix would move the medians
between seeds by more than any change worth measuring.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from pathlib import Path

import calibrate

ALL_RULES = ("thm2.1", "cor2.2", "thm2.3", "cor2.4", "cor2.5",
             "thm3.1", "cor3.2", "cor3.3", "cor3.4")
# cor3.3 and cor3.4 have no refusal instances: the inverse exists whenever
# their hypotheses hold. thm3.1 and cor3.2 refuse through a nilpotent
# corner, which needs rank_f <= n - 2; the others need rank_f <= n - 1.
REFUSING_RULES = ALL_RULES[:7]
NILPOTENT_REFUSALS = ("thm3.1", "cor3.2")


def _entry_bits(matrix) -> int:
    bits = 0
    for i in range(matrix.rows):
        for j in range(matrix.cols):
            x = matrix[i, j]
            for part in (x.re, x.im):
                bits = max(bits, part.numerator.bit_length(),
                           part.denominator.bit_length())
    return bits


def _even_ranks(ranks: list[int], count: int) -> list[int]:
    """``count`` values spread evenly over ``ranks``, the same at every seed.

    Over many draws this is the uniform rank_f that run_campaign draws, but
    every run gets low, middle and high ranks in the same proportion.
    """
    return [ranks[int((j + 0.5) * len(ranks) / count)] for j in range(count)]


class VerifyWorkload:
    """Trials of ``gen_pair(spec)`` then ``verify_instance(e, f, rule)``.

    One round draws ``per_cell`` trials for every (rule, n) pair. The drazin
    cache is cleared once per pass and then left warm, as ``blockginv
    verify`` leaves it.
    """

    clear_cache_per_item = False

    def __init__(self, name, rules, sizes, satisfy, expected, per_cell,
                 round_s):
        self.name = name
        self.round_s = round_s
        self.rules = rules
        self.sizes = sizes
        self.satisfy = satisfy
        self.expected = expected
        self.per_cell = per_cell
        self.prog = None
        self.seed = 0
        self._rounds: dict[int, list] = {}

    def _ranks(self, rule: str, n: int) -> list[int]:
        if self.satisfy:
            return list(range(n + 1))
        top = n - 2 if rule in NILPOTENT_REFUSALS else n - 1
        return list(range(top + 1))

    def setup(self, prog, seed: int, workdir: Path) -> None:
        self.prog = prog
        self.seed = seed
        self._rounds = {}
        self.round(0)

    def round(self, index: int) -> list:
        if index not in self._rounds:
            self._rounds[index] = self._draw_round(index)
        return self._rounds[index]

    def _draw_round(self, index: int) -> list:
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        gen_spec = self.prog.generators.GenSpec
        specs = []
        for rule in self.rules:
            for n in self.sizes:
                for rank_f in _even_ranks(self._ranks(rule, n),
                                          self.per_cell):
                    specs.append(gen_spec(rule, n, rank_f, self.satisfy,
                                          rng.getrandbits(32)))
        return specs

    def stopwatch_bindings(self):
        # verify_instance calls the closed form and the oracle through these
        # two names, and calls nothing else through them.
        generators = self.prog.generators
        return {"closed_form": (generators, "block_group_inverse"),
                "oracle": (generators, "drazin")}

    def run_item(self, spec):
        gens = self.prog.generators
        e, f = gens.gen_pair(spec)
        return gens.verify_instance(e, f, spec.theorem)

    def check(self, outcomes: list) -> list[str | None]:
        """One entry per outcome: None when correct, else what went wrong."""
        problems = []
        for spec, report in outcomes:
            if report.verdict.value != self.expected:
                problems.append(f"{spec}: verdict {report.verdict.value}, "
                                f"expected {self.expected}")
            elif self.satisfy and report.formula != report.oracle:
                problems.append(f"{spec}: closed form differs from oracle")
            else:
                problems.append(None)
        return problems

    def check_oracle_ms(self) -> None:
        """The oracle is timed inside each trial, not in the check."""
        return None

    def extras(self, outcomes: list) -> dict:
        bits = 0
        max_index = 0
        for _, report in outcomes:
            bits = max(bits, _entry_bits(report.oracle))
            if report.formula is not None:
                bits = max(bits, _entry_bits(report.formula))
            max_index = max(max_index, report.oracle_index)
        return {"max_entry_bits": bits, "oracle_max_index": max_index}


class ClosedFormWorkload:
    """``blockginv block`` requests on pairs written as JSON files in setup.

    Each request runs ``cli.main`` in-process with stdout captured, after
    ``drazin.cache_clear()``, as a fresh CLI process would start. A round
    requests every pair ``requests_per_pair`` times. Outputs are compared
    with the oracle after the timed loop, so neither generation nor the
    oracle is timed per request.
    """

    name = "closed-form"
    clear_cache_per_item = True

    def __init__(self, n: int, ranks_per_rule: int, requests_per_pair: int,
                 round_s: float):
        self.round_s = round_s
        self.requests_per_pair = requests_per_pair
        self.n = n
        self.ranks_per_rule = ranks_per_rule
        self.prog = None
        self.pairs: list[tuple[str, object, object, str, str]] = []
        self._oracles_timed: list | None = None

    def setup(self, prog, seed: int, workdir: Path) -> None:
        self.prog = prog
        rng = random.Random(f"{self.name}:{seed}")
        gens, to_rows = prog.generators, prog.cli.matrix_to_rows
        workdir.mkdir(parents=True, exist_ok=True)
        self.pairs = []
        self._oracles_timed = None
        for rule in ALL_RULES:
            for rank_f in _even_ranks(list(range(self.n + 1)),
                                      self.ranks_per_rule):
                spec = gens.GenSpec(rule, self.n, rank_f, True,
                                    rng.getrandbits(32))
                e, f = gens.gen_pair(spec)
                paths = []
                for label, matrix in (("E", e), ("F", f)):
                    path = workdir / f"{len(self.pairs)}_{label}.json"
                    path.write_text(json.dumps({"rows": to_rows(matrix)}))
                    paths.append(str(path))
                self.pairs.append((rule, e, f, *paths))

    def round(self, index: int) -> list[int]:
        return list(range(len(self.pairs))) * self.requests_per_pair

    def stopwatch_bindings(self):
        return {"closed_form": (self.prog.cli, "block_group_inverse")}

    def run_item(self, pair: int):
        rule, _, _, e_path, f_path = self.pairs[pair]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.prog.cli.main(["block", "--theorem", rule,
                                       "--E", e_path, "--F", f_path])
        return code, out.getvalue()

    def _oracles(self) -> list:
        """The oracle for every pair, each from a cold cache, and its time.

        The oracle is not part of a request, so it is timed here, after the
        requests, and scaled like an item (see calibrate).
        """
        if self._oracles_timed is None:
            theorems, ginverse = self.prog.theorems, self.prog.ginverse
            probes = calibrate.Probes()
            probes.take()
            results, spans = [], []
            for rule, e, f, _, _ in self.pairs:
                big = theorems.assemble_M(e, f,
                                          theorems.SHAPE_FOR_THEOREM[rule])
                ginverse.drazin.cache_clear()
                start = time.perf_counter()
                results.append(ginverse.drazin(big))
                spans.append((start, time.perf_counter()))
                probes.take()
            self._oracles_timed = [
                (result, (end - start) * 1000 * probes.factor(start, end))
                for result, (start, end) in zip(results, spans)]
        return [result for result, _ in self._oracles_timed]

    def check(self, outcomes: list) -> list[str | None]:
        """One entry per outcome: None when correct, else what went wrong."""
        oracles = self._oracles()
        return [self._check_one(pair, code, text, oracles[pair])
                for pair, (code, text) in outcomes]

    def check_oracle_ms(self) -> list[float]:
        """Scaled oracle time per pair, taken while checking outputs."""
        self._oracles()
        return [ms for _, ms in self._oracles_timed]

    def _check_one(self, pair, code, text, oracle) -> str | None:
        rule = self.pairs[pair][0]
        if code != 0:
            return f"pair {pair} ({rule}): exit code {code}"
        if oracle.index > 1:
            return f"pair {pair} ({rule}): oracle index {oracle.index}"
        from_rows = self.prog.cli.matrix_from_rows
        try:
            payload = json.loads(text)
            assembled = from_rows(payload["assembled"])
            blocks = self.prog.matrices.Matrix.from_blocks([
                [from_rows(payload["gamma"]), from_rows(payload["delta"])],
                [from_rows(payload["lambda"]), from_rows(payload["xi"])],
            ])
        except (ValueError, KeyError, TypeError) as exc:
            return f"pair {pair} ({rule}): unreadable output ({exc})"
        if payload.get("theorem") != rule:
            return (f"pair {pair} ({rule}): output names "
                    f"{payload.get('theorem')}")
        if assembled != oracle.drazin:
            return f"pair {pair} ({rule}): assembled differs from oracle"
        if blocks != assembled:
            return f"pair {pair} ({rule}): blocks differ from assembled"
        return None

    def extras(self, outcomes: list) -> dict:
        first = {}
        for pair, (code, text) in outcomes:
            if code == 0:
                first.setdefault(pair, text)
        from_rows = self.prog.cli.matrix_from_rows
        bits = max((_entry_bits(from_rows(json.loads(text)["assembled"]))
                    for text in first.values()), default=0)
        return {"max_entry_bits": bits, "oracle_max_index": 0}


def make(name: str, smoke: bool):
    """The named workload; ``smoke`` shrinks it to a few tiny items.

    ``round_s`` is about how long a round takes on the reference machine;
    an untraced run does ``--seconds // round_s`` rounds, and at least one.
    """
    if name == "campaign":
        return VerifyWorkload("campaign", ALL_RULES,
                              range(1, 3) if smoke else range(1, 7),
                              satisfy=True, expected="AgreeExists",
                              per_cell=1 if smoke else 6, round_s=24.0)
    if name == "refusals":
        return VerifyWorkload("refusals", REFUSING_RULES,
                              range(2, 4) if smoke else range(2, 7),
                              satisfy=False, expected="AgreeNotExists",
                              per_cell=1 if smoke else 8, round_s=28.0)
    if name == "closed-form":
        return ClosedFormWorkload(n=2 if smoke else 8,
                                  ranks_per_rule=1 if smoke else 3,
                                  requests_per_pair=2, round_s=24.0)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("campaign", "closed-form", "refusals")
