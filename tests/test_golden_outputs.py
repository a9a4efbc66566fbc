"""Byte-for-byte pins of CLI output on the bundled datasets.

Every case runs ``nestseg.cli.main`` in-process and hashes the exit
code, stdout and stderr together; the expected sha256s live in
``golden_outputs.json`` next to this file.  A refactor that changes a
single neighbor order, a summation order or a tie-break shows up here
even when every value still agrees to ``approx``.

Regenerate the pins (only for an intended output change) with::

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from nestseg.cli import main
from nestseg.graph_core import _parse_regular

HERE = Path(__file__).resolve().parent
DATA_DIR = HERE.parent / "data"
GOLDEN = HERE / "golden_outputs.json"

# dataset -> source specs for the explicit-source runs (two singles and the pair)
DATASETS = {
    "karate.txt": ("1", "2", "1,2"),
    "lesmis.txt": ("Babet", "Brujon", "Babet,Brujon"),
}
SCHEMES = ("norm", "sum", "min", "original")
ORDERS = ("peel", "degree", "pagerank", "hops")
KS = (1, 3, 5, 8)
FORMATS = ("json", "tsv", "dot")


def cases() -> dict[str, list[str]]:
    """Case id -> argv without the --input flag's path prefix resolved."""
    out: dict[str, list[str]] = {}
    for data, sources in DATASETS.items():
        runs = [["run", "--scheme", s, "--order", o, "-k", str(k), "--format", f]
                for s in SCHEMES for o in ORDERS for k in KS for f in FORMATS]
        runs += [["compare"],
                 ["compare", "--weighted-walk", "--k-min", "1", "--k-max", "12"]]
        runs += [["run", "-k", "3", "--source", src] for src in sources]
        for argv in runs:
            out[" ".join([data] + argv)] = argv[:1] + ["--input", data] + argv[1:]
    return out


def output_digest(argv: list[str], data_dir: Path = DATA_DIR) -> str:
    """sha256 of the exit code, stdout and stderr of one CLI call."""
    argv = [str(data_dir / a) if a in DATASETS else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    blob = f"exit {rc}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def current_digests() -> dict[str, str]:
    return {name: output_digest(argv) for name, argv in cases().items()}


def test_cli_outputs_match_golden_bytes():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = current_digests()
    assert sorted(actual) == sorted(expected), "case list changed"
    changed = [name for name in expected if actual[name] != expected[name]]
    assert not changed, f"{len(changed)} of {len(expected)} outputs changed, e.g. {changed[:5]}"


def test_regular_file_path_matches_golden_bytes(tmp_path):
    # both datasets open with a '#' line, which sends them through the line
    # loop; without their comment lines they take the whole-file path
    for data in DATASETS:
        lines = (DATA_DIR / data).read_bytes().splitlines(keepends=True)
        stripped = b"".join(line for line in lines if not line.startswith(b"#"))
        assert _parse_regular(stripped) is not None
        (tmp_path / data).write_bytes(stripped)
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    argvs = cases()
    picked = [name for name, argv in argvs.items()
              if argv[0] == "compare" or "--source" in argv
              or argv[3:9] in (["--scheme", "sum", "--order", "peel", "-k", "5"],
                               ["--scheme", "norm", "--order", "hops", "-k", "3"])]
    assert len(picked) == 2 * (2 + 3 + 3 + 3)
    changed = [name for name in picked
               if output_digest(argvs[name], tmp_path) != expected[name]]
    assert not changed, f"{len(changed)} of {len(picked)} outputs changed, e.g. {changed[:5]}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(current_digests(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
