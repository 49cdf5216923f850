"""The golden bytes of ``golden.txt`` (its header gives the format): every
output in it, run row by row through ``cli.main`` in process."""

import contextlib
import hashlib
import io
import re
import sys
from pathlib import Path

import pytest

from circsep import cli

MANIFEST = Path(__file__).with_name("golden.txt")


def _outputs():
    """FILE -> its rows: (exit code, stdout digest, stderr digest,
    environment, argv)."""
    outputs = {}
    for line in MANIFEST.read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        name, code, out, err, *words = line.split()
        env = {}
        while words and re.match(r"[A-Z_]+=", words[0]):
            key, _, value = words.pop(0).partition("=")
            env[key] = value
        outputs.setdefault(name, []).append((int(code), out, err, env, words))
    return outputs


OUTPUTS = _outputs()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest() if text else "-"


def _run(env, argv, monkeypatch):
    """``cli.main(argv)`` with ``env`` set and its output captured.  The
    interpreter reads PYTHONINTMAXSTRDIGITS only at start-up, so its limit is
    set here as the interpreter would set it (the setting is 3.10.7+)."""
    out, err = io.StringIO(), io.StringIO()
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    with monkeypatch.context() as patch:
        for key, value in env.items():
            patch.setenv(key, value)
        if limit is not None and "PYTHONINTMAXSTRDIGITS" in env:
            sys.set_int_max_str_digits(int(env["PYTHONINTMAXSTRDIGITS"]))
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)
    return code, out.getvalue(), err.getvalue()


def test_manifest_rows_are_well_formed():
    rows = [row for rows in OUTPUTS.values() for row in rows]
    assert len(OUTPUTS) == 48 and len(rows) == 62
    for code, out, err, env, argv in rows:
        assert code in {0, 1, 2, 3, 4} and argv
        assert all(re.fullmatch(r"[0-9a-f]{64}|-", d) for d in (out, err))
        assert set(env) <= {"COLUMNS", "PYTHONINTMAXSTRDIGITS"}


@pytest.mark.parametrize("name", OUTPUTS)
def test_golden_output(name, monkeypatch):
    rows = OUTPUTS[name]
    digests, = {(out, err) for _, out, err, _, _ in rows}  # one per FILE
    outs, errs = [], []
    for code, _, _, env, argv in rows:
        got, out, err = _run(env, argv, monkeypatch)
        assert got == code, " ".join(argv)
        outs.append(out)
        errs.append(err)
    assert (_digest("".join(outs)), _digest("".join(errs))) == digests
