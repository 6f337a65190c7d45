"""Golden digests of the CLI on the bundled fixtures.

Every command runs on ex41, ex42 and ex54 with each named weight and
the default, as text and as --json. The digest of a run is the sha256
of its exit code, stdout and stderr; for render it is the exit code and
the bytes of the SVG written. --numeric is left out: its float digits
depend on the platform's pow and Gauss-Legendre nodes.

Regenerate the stored digests after an intended output change with

    python tests/test_cli_golden.py
"""

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

if __name__ == "__main__":  # run as a script from a source checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from residuum.cli import COMMANDS, main
from residuum.problem import BUNDLED, parse

GOLDEN = Path(__file__).with_name("cli_golden.json")


def _argvs():
    for name in BUNDLED:
        for weight in [None] + parse(name).weight_names():
            base = [name] + ([weight] if weight is not None else [])
            for cmd in COMMANDS:
                yield [cmd] + base
                if cmd != "render":
                    yield [cmd] + base + ["--json"]


def _digest(argv, tmpdir):
    out, err = io.StringIO(), io.StringIO()
    svg = Path(tmpdir) / "out.svg"
    extra = ["--svg", str(svg)] if argv[0] == "render" else []
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv + extra)
    h = hashlib.sha256(f"{code}\n".encode())
    if argv[0] == "render":
        if svg.exists():
            h.update(svg.read_bytes())
            svg.unlink()
    else:
        h.update(out.getvalue().encode() + b"\0" + err.getvalue().encode())
    return h.hexdigest()


def digests():
    with tempfile.TemporaryDirectory() as tmpdir:
        return {" ".join(argv): _digest(argv, tmpdir) for argv in _argvs()}


def test_cli_output_matches_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    now = digests()
    assert sorted(now) == sorted(golden), "the set of golden invocations changed"
    for argv, digest in now.items():
        assert digest == golden[argv], f"output of `residuum {argv}` changed"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
