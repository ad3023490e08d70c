"""tools/cli_digest.py: the byte-identity check of CLI outputs across checkouts."""

import json
import subprocess
import sys
from pathlib import Path

from sedopt import cli

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "cli_digest.py"


def test_digest_is_reproducible_and_covers_every_command(tmp_path):
    out = tmp_path / "digest.json"
    runs = [subprocess.run([sys.executable, SCRIPT, ROOT, *args], capture_output=True,
                           text=True, check=True)
            for args in (["--out", str(out)], [])]
    first, second = json.loads(out.read_text()), json.loads(runs[1].stdout)
    assert runs[0].stdout == ""
    assert first == second
    status = first["status"]
    assert set(status.values()) == {0}
    assert {name.partition("-")[0] for name in status} == set(cli._COMMAND_TABLE)
    for key in first["files"]:
        run, _, name = key.partition("/")
        assert name in (*cli._COMMAND_TABLE[run.partition("-")[0]].outputs, "run_config.json")
