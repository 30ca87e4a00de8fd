"""Golden command-line runs.

``data/golden_cli.json`` holds, for every case, the SHA-256 of the bytes
the four subcommands leave behind when run in-process: the ``gen``
instance file; the stdout and exit code of ``check`` under each of the
four criteria; the CSV, status sidecar, stdout and exit code of
``integrate`` under each of its four methods; and the stdout and exit
code of ``verify`` on each of those four CSVs. A case passes only when
every file, every stdout and every exit code is the recorded one.

Cases: the three generator families at n in {1, 3, 8} with seed 11 and
the default 201 samples, plus the satisfying family at n = 8 with 1001
samples, so that the monitors and the residual span several blocks of
``matrix_core.BLOCK_ENTRIES`` entries.

Like the golden trajectories, the digests pin the rounding of one numpy
and scipy build, the one in ``.github/constraints.txt`` (numpy 2.4.6 and
scipy 1.17.1 with the bundled OpenBLAS, on x86-64); a build that rounds
differently changes them without any change to this package.

Regenerate with ``PYTHONPATH=src python tests/test_golden_cli.py`` only
when a change of the command-line output is intended and logged.
"""

import contextlib
import functools
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from riccati_cert.cli import main
from riccati_cert.criteria import CRITERION_NAMES

GOLDEN = Path(__file__).parent / "data" / "golden_cli.json"
METHODS = ("direct", "radon", "both", "lyapunov")
SEED = 11

CASES = {f"{target}.n{n}": (target, n, 201)
         for target in ("satisfying", "comparison", "blowup") for n in (1, 3, 8)}
CASES["satisfying.n8.s1001"] = ("satisfying", 8, 1001)


def _sha(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _run(*argv) -> tuple[int, str]:
    """(exit code, stdout) of one in-process CLI call; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(a) for a in argv])
    return code, out.getvalue()


def _record(case: str, workdir: Path) -> dict:
    target, n, samples = CASES[case]
    inst = workdir / "instance.json"
    code, _ = _run("gen", "--target", target, "--n", n, "--seed", SEED, "--out", inst)
    rec = {"gen": {"exit": code, "file": _sha(inst.read_bytes())}}
    for crit in CRITERION_NAMES:
        code, out = _run("check", inst, "--criterion", crit)
        rec[f"check.{crit}"] = {"exit": code, "stdout": _sha(out)}
    for method in METHODS:
        csv = workdir / f"{method}.csv"
        code, out = _run("integrate", inst, "--method", method, "--out", csv,
                         "--samples", samples)
        rec[f"integrate.{method}"] = {
            "exit": code, "stdout": _sha(out), "csv": _sha(csv.read_bytes()),
            "sidecar": _sha((workdir / f"{method}.status.json").read_bytes())}
        code, out = _run("verify", inst, csv)
        rec[f"verify.{method}"] = {"exit": code, "stdout": _sha(out)}
    return rec


@functools.cache
def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_cases_cover_every_golden_record():
    assert sorted(CASES) == sorted(_golden())


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_matches_golden(case, tmp_path):
    assert _record(case, tmp_path) == _golden()[case]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    records = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            records[case] = _record(case, Path(tmp))
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
