"""Span tracing for the traced benchmark run.

Wrappers go around the calls into each layer of blockginv. They are placed
at every module binding of a wrapped function, because the modules import
names directly (``from .matrices import rank``): replacing ``matrices.rank``
alone would miss ``ginverse.rank``. Spans (name, start, end, parent, error)
stay in memory until the run ends. Scalar arithmetic is counted, not
spanned: it runs millions of times per round, and a span each would swamp
the timings it is meant to explain.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

# (span name, module, attribute). Aliases such as GaussianRational.__radd__,
# which is the same function object as __add__, are found by identity.
SPANNED = (
    ("matrices.mul", "matrices", "Matrix.__mul__"),
    ("matrices.mul", "matrices", "Matrix.__rmul__"),
    ("matrices.rref", "matrices", "rref"),
    ("matrices.rank", "matrices", "rank"),
    ("matrices.inverse", "matrices", "inverse"),
    ("matrices.kernel_basis", "matrices", "kernel_basis"),
    ("matrices.column_space_basis", "matrices", "column_space_basis"),
    ("ginverse.drazin", "ginverse", "drazin"),
    ("theorems.check_conditions", "theorems", "check_conditions"),
    ("theorems.block_group_inverse", "theorems", "block_group_inverse"),
    ("generators.gen_pair", "generators", "gen_pair"),
    ("generators.verify_instance", "generators", "verify_instance"),
    ("cli.main", "cli", "main"),
    ("cli.load_matrix", "cli", "load_matrix"),
    ("cli.matrix_to_rows", "cli", "matrix_to_rows"),
)

COUNTED = (
    ("scalars.addsub", "scalars", "GaussianRational.__add__"),
    ("scalars.addsub", "scalars", "GaussianRational.__sub__"),
    ("scalars.addsub", "scalars", "GaussianRational.__rsub__"),
    ("scalars.mul", "scalars", "GaussianRational.__mul__"),
    # Every division goes through inverse(), including a / b.
    ("scalars.div", "scalars", "GaussianRational.inverse"),
)

_NAME, _START, _END, _PARENT, _ERROR = range(5)


class Tracer:
    """Records spans and counts while its wrappers are installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._cells: dict[str, list[int]] = {}
        self._restore: list[tuple[object, str, object]] = []

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                record[_ERROR] = type(exc).__name__
                raise
            finally:
                stack.pop()
                record[_END] = clock()

        return wrapper

    def _counter(self, name, fn):
        cell = self._cells.setdefault(name, [0])

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    def count(self, name: str) -> int:
        return self._cells.get(name, [0])[0]

    def install(self, modules: dict) -> None:
        """Wrap every binding of the traced functions in ``modules``.

        ``modules`` maps short names ("matrices", ...) to the loaded module
        objects, the package itself under "blockginv".
        """
        for make, table in ((self._span, SPANNED), (self._counter, COUNTED)):
            for name, module, attribute in table:
                owner = modules[module]
                *path, leaf = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = vars(owner)[leaf]
                wrapper = make(name, original)
                holders = [owner, *modules.values()]
                for holder in holders:
                    keys = [k for k, v in vars(holder).items()
                            if v is original]
                    for key in keys:
                        self._restore.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            holder, key, original = self._restore.pop()
            setattr(holder, key, original)

    def write(self, path: Path) -> None:
        names = sorted({s[_NAME] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        payload = {
            "fields": ["name", "start_s", "end_s", "parent", "error"],
            "names": names,
            "spans": [[index[s[_NAME]], s[_START], s[_END], s[_PARENT],
                       s[_ERROR]] for s in self.spans],
            "counts": {name: cell[0] for name, cell in self._cells.items()},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer sums over the recorded spans.

        A span's self time is its duration minus the durations of its direct
        children; spans on one thread nest, so children never overlap.
        """
        spans = self.spans
        duration = [s[_END] - s[_START] for s in spans]
        self_time = duration[:]
        for i, s in enumerate(spans):
            if s[_PARENT] >= 0:
                self_time[s[_PARENT]] -= duration[i]

        def name_of(i):
            return spans[i][_NAME] if i >= 0 else None

        def inside(i, ancestor):
            parent = spans[i][_PARENT]
            while parent >= 0:
                if spans[parent][_NAME] == ancestor:
                    return True
                parent = spans[parent][_PARENT]
            return False

        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        for i, s in enumerate(spans):
            name = s[_NAME]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + duration[i]
            own[name] = own.get(name, 0.0) + self_time[i]

        oracle = [i for i, s in enumerate(spans)
                  if s[_NAME] == "ginverse.drazin"
                  and name_of(s[_PARENT]) == "generators.verify_instance"]
        ef_drazin = sum(duration[i] for i, s in enumerate(spans)
                        if s[_NAME] == "ginverse.drazin"
                        and inside(i, "theorems.block_group_inverse"))
        attempts = sum(1 for s in spans
                       if s[_NAME] == "theorems.check_conditions"
                       and name_of(s[_PARENT]) == "generators.gen_pair")
        pairs = sum(1 for s in spans
                    if s[_NAME] == "generators.gen_pair" and s[_ERROR] is None)
        refusals = sum(1 for s in spans
                       if s[_NAME] == "theorems.block_group_inverse"
                       and s[_ERROR] == "NotGroupInvertible")
        closed_form = total.get("theorems.block_group_inverse", 0.0)
        return {
            "scalars.mul_calls": self.count("scalars.mul"),
            "scalars.addsub_calls": self.count("scalars.addsub"),
            "scalars.div_calls": self.count("scalars.div"),
            "matrices.mul_calls": calls.get("matrices.mul", 0),
            "matrices.mul_self_s": own.get("matrices.mul", 0.0),
            "matrices.rank_calls": calls.get("matrices.rank", 0),
            "matrices.rank_self_s": own.get("matrices.rank", 0.0),
            "matrices.rref_calls": calls.get("matrices.rref", 0),
            "matrices.rref_self_s": own.get("matrices.rref", 0.0),
            "matrices.inverse_calls": calls.get("matrices.inverse", 0),
            "matrices.inverse_self_s": own.get("matrices.inverse", 0.0),
            "matrices.bases_self_s": (own.get("matrices.kernel_basis", 0.0)
                                      + own.get("matrices.column_space_basis",
                                                0.0)),
            "ginverse.drazin_calls": calls.get("ginverse.drazin", 0),
            "ginverse.oracle_s": sum(duration[i] for i in oracle),
            "ginverse.oracle_self_s": sum(self_time[i] for i in oracle),
            "ginverse.ef_drazin_s": ef_drazin,
            "theorems.closed_form_s": closed_form,
            "theorems.block_algebra_s": closed_form - ef_drazin,
            "theorems.check_conditions_calls":
                calls.get("theorems.check_conditions", 0),
            "theorems.check_conditions_s":
                total.get("theorems.check_conditions", 0.0),
            "theorems.refusals": refusals,
            "generators.gen_pair_s": total.get("generators.gen_pair", 0.0),
            "generators.gen_attempts": attempts,
            "generators.gen_hit_ratio": pairs / attempts if attempts else 0.0,
            "generators.verify_s":
                total.get("generators.verify_instance", 0.0),
            "cli.parse_s": total.get("cli.load_matrix", 0.0),
            "cli.format_s": total.get("cli.matrix_to_rows", 0.0),
        }
