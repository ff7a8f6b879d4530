"""The CLI's output on a fixed corpus, replayed byte for byte.

``tests/data/cli_golden.json`` holds every case's argv, its input matrices
and the stdout, stderr and exit code that ``blockginv`` printed when the
corpus was recorded. The corpus covers ``block`` and ``check`` on one
positive, one refusal and one standing-violation pair per rule,
``verify`` per rule (with ``--negative`` where the rule refuses),
``example-3.5``, ``drazin`` and ``groupinv``. Each replay runs ``main``
in-process on the same inputs.

To re-record, which is only right when an output is meant to change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
from pathlib import Path

import pytest

from blockginv.cli import main, matrix_to_rows

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"


def _index_two(n: int, seed: int):
    """P J P^-1 with J = diag([[0, 1], [0, 0]], 2 I): Drazin index 2."""
    from seeded import gen_invertible
    from blockginv.matrices import Matrix, inverse
    from blockginv.scalars import GaussianRational

    j = Matrix.from_rows([
        [GaussianRational(1 if (i, k) == (0, 1) else 2 if i == k >= 2 else 0)
         for k in range(n)] for i in range(n)])
    p = gen_invertible(n, seed)
    return p * j * inverse(p)


def _cases():
    """(name, argv, inputs) for every case; "{X}" in argv names input X."""
    from blockginv.generators import GenSpec, gen_pair
    from blockginv.theorems import RULES
    from seeded import gen_group_invertible

    pair_argv = ["--E", "{E}", "--F", "{F}"]
    e_index_two = _index_two(3, 5)
    f_group = gen_group_invertible(3, 2, 6)
    cases = []
    for theorem, rule in RULES.items():
        pairs = {
            "positive": gen_pair(GenSpec(theorem, 4, 2, True, seed=1)),
            "standing": (e_index_two, f_group),
        }
        if rule.blocker is not None:
            pairs["refusal"] = gen_pair(GenSpec(theorem, 4, 2, False, seed=1))
        for kind, (e, f) in pairs.items():
            inputs = {"E": matrix_to_rows(e), "F": matrix_to_rows(f)}
            for command in ("block", "check"):
                cases.append((f"{command}-{theorem}-{kind}",
                              [command, "--theorem", theorem, *pair_argv],
                              inputs))
        verify = ["verify", "--theorem", theorem, "--trials", "20",
                  "--max-n", "4"]
        cases.append((f"verify-{theorem}", verify, {}))
        if rule.blocker is not None:
            cases.append((f"verify-{theorem}-negative",
                          [*verify, "--negative"], {}))
    cases.append(("example-3.5", ["example-3.5"], {}))
    for command, name, m in (("drazin", "index-two", e_index_two),
                             ("drazin", "group", f_group),
                             ("groupinv", "index-two", e_index_two),
                             ("groupinv", "group", f_group)):
        cases.append((f"{command}-{name}", [command, "{M}"],
                      {"M": matrix_to_rows(m)}))
    return cases


def _run(argv, inputs, directory: Path, capsys):
    paths = {}
    for key, rows in inputs.items():
        path = directory / f"{key}.json"
        path.write_text(json.dumps({"rows": rows}))
        paths["{" + key + "}"] = str(path)
    code = main([paths.get(arg, arg) for arg in argv])
    captured = capsys.readouterr()
    return {"stdout": captured.out, "stderr": captured.err, "exit": code}


def _golden():
    if __name__ == "__main__":  # recording: the corpus may not exist yet
        return []
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", _golden(), ids=lambda case: case["name"])
def test_cli_output_matches_golden(case, tmp_path, capsys):
    got = _run(case["argv"], case["inputs"], tmp_path, capsys)
    assert got == {key: case[key] for key in ("stdout", "stderr", "exit")}


def _record() -> None:
    import io
    import tempfile
    from contextlib import redirect_stderr, redirect_stdout
    from types import SimpleNamespace

    class Capture:
        """Both streams of one case, read as pytest's ``capsys`` reads them."""

        def __init__(self):
            self.out, self.err = io.StringIO(), io.StringIO()

        def readouterr(self):
            return SimpleNamespace(out=self.out.getvalue(),
                                   err=self.err.getvalue())

    corpus = []
    with tempfile.TemporaryDirectory() as directory:
        for name, argv, inputs in _cases():
            capture = Capture()
            with redirect_stdout(capture.out), redirect_stderr(capture.err):
                got = _run(argv, inputs, Path(directory), capture)
            corpus.append({"name": name, "argv": argv, "inputs": inputs,
                           **got})
            print(got["exit"], name)
    GOLDEN.parent.mkdir(exist_ok=True)
    lines = ",\n".join(map(json.dumps, corpus))  # one case per line
    GOLDEN.write_text(f"[\n{lines}\n]\n", encoding="utf-8")


if __name__ == "__main__":
    _record()
