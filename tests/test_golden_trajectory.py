"""A seeded training trajectory with dropout on, pinned byte for byte.

`meder train` runs both arms on the bundled sample with a tiny config,
dropout 0.1, a mid-epoch validation every 2 steps and 2 epochs.  The
fixture holds each arm's `history.json` text and the sha256 of its
`model.ckpt`, so any change to the forward pass, the dropout draws, the
optimizer or the choice of kept weights shows up as a failure.

Regenerate the fixture only on purpose, with a note saying why:

    PYTHONPATH=src python tests/test_golden_trajectory.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from meder.cli import main
from meder.model import ARMS

GOLDEN = Path(__file__).parent / "data" / "golden_trajectory.json"
ARGS = ("--max-len", "32", "--d-model", "8", "--n-heads", "2", "--n-layers", "1",
        "--d-ff", "16", "--batch-size", "16", "--lr", "2e-3", "--target-size", "200",
        "--min-freq", "2", "--dropout", "0.1", "--eval-every", "2", "--epochs", "2")


def trajectory(arm: str, work: Path) -> dict:
    out = work / arm
    if main(["train", "--out-dir", str(out), "--arm", arm, *ARGS]) != 0:
        raise RuntimeError(f"meder train --arm {arm} failed")
    return {
        "history": (out / "history.json").read_text(encoding="utf-8"),
        "checkpoint_sha256": hashlib.sha256((out / "model.ckpt").read_bytes()).hexdigest(),
    }


@pytest.mark.parametrize("arm", list(ARMS))
def test_seeded_trajectory_matches_the_golden_fixture(tmp_path, capsys, arm):
    spec = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert spec["args"] == list(ARGS)
    assert trajectory(arm, tmp_path) == spec["arms"][arm]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        arms = {arm: trajectory(arm, Path(tmp)) for arm in ARMS}
    GOLDEN.write_text(json.dumps({"args": list(ARGS), "arms": arms}, indent=2) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
