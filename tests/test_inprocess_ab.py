"""tools/inprocess_ab.py: interleaved timings of two checkouts in one process."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "inprocess_ab.py"


def test_a_a_run_reports_every_item():
    # one tree on both sides: same outputs, two pairs of timings per item
    run = subprocess.run([sys.executable, SCRIPT, ROOT, ROOT, "--pairs", "2", "--tiny"],
                         capture_output=True, text=True, check=True)
    report = json.loads(run.stdout)
    assert list(report) == ["mc-scalar", "mc-43", "solve-1", "solve-43"]
    for item in report.values():
        assert item["pairs"] == 2 and 0 <= item["wins"] <= 2
        assert item["same_output"] is True
        assert 0.5 < item["median_ratio"] < 2.0
        for side in ("parent", "change"):
            times = item[side]["times_s"]
            assert len(times) == 2 and all(t > 0.0 for t in times)
            assert item[side]["min_s"] == min(times) <= item[side]["median_s"] <= max(times)
            assert item[side]["min_s"] <= item[side]["p10_s"] <= item[side]["median_s"]
