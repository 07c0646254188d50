"""Golden digests: sha256 of the byte-compared artifacts for a fixed matrix.

Determinism tests compare one run against another run of the same code,
so a refactor that changes behaviour in both runs passes them.  This test
compares against digests stored in ``golden_digests.json`` instead.

Regenerate the fixture only when a behaviour change is intended:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from signaltwin.cli import main

FIXTURE = Path(__file__).with_name("golden_digests.json")

BASE_CONFIG = {
    "network": {"rows": 3, "cols": 3, "segment_length": 400.0,
                "lane_count": 1, "pocket_length": 60.0, "free_flow_speed": 13.89},
    "horizon": 900.0,
    "warmup": 150.0,
    "cooldown": 150.0,
    "base_vph": 60.0,
    "ladder_factor": 0.25,
    "seed": 42,
}
TWIN_CONFIG = {
    **BASE_CONFIG,
    "horizon": 600.0, "warmup": 100.0, "cooldown": 100.0, "scenario": 2,
    "twin": {"factors": [0.8, 1.0, 1.2], "period": 300.0,
             "job_horizon": 450.0, "job_warmup": 150.0},
}
RUN_ARTIFACTS = (
    "trajectory.csv", "signals.csv", "summary.json", "report.json",
    "network.json", "departures.csv", "config.json",
)
# config.json records the output directory, which differs between runs.
OUT_PLACEHOLDER = "<out>"

# case name -> (config, commands run on it in order, digested artifacts)
CASES = {
    **{
        f"simulate-{algo}-s{k}": (
            {**BASE_CONFIG, "scenario": k, "algorithms": [algo]},
            ("simulate", "report"),
            RUN_ARTIFACTS,
        )
        for algo in ("baseline", "dt1", "dt2")
        for k in (3, 9)
    },
    # At dt 0.5 every stage and the fixed-time cycle last twice as many steps.
    "simulate-dt1-s9-dt0.5": (
        {**BASE_CONFIG, "scenario": 9, "algorithms": ["dt1"], "dt": 0.5},
        ("simulate", "report"),
        RUN_ARTIFACTS,
    ),
    # Two lanes per segment, so lane choice at insertion and turning is used.
    "simulate-dt1-s9-2lane": (
        {**BASE_CONFIG, "network": {**BASE_CONFIG["network"], "lane_count": 2},
         "scenario": 9, "algorithms": ["dt1"]},
        ("simulate", "report"),
        RUN_ARTIFACTS,
    ),
    "twin-s2": (TWIN_CONFIG, ("twin", "report"), RUN_ARTIFACTS + ("twin_manifest.json",)),
    # Two periods whose jobs run in one pool of two worker processes.
    "twin-s2-p2": (
        {**TWIN_CONFIG, "horizon": 900.0, "parallelism": 2},
        ("twin", "report"),
        RUN_ARTIFACTS + ("twin_manifest.json",),
    ),
}


def case_digests(name: str, work_dir: Path) -> dict[str, str]:
    config, commands, artifacts = CASES[name]
    out = work_dir / name
    cfg_path = work_dir / f"{name}.json"
    cfg_path.write_text(json.dumps({**config, "out": str(out)}))
    for command in commands:
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0, command
    return {a: hashlib.sha256(_artifact_bytes(out, a)).hexdigest() for a in artifacts}


def _artifact_bytes(out: Path, artifact: str) -> bytes:
    data = (out / artifact).read_bytes()
    if artifact != "config.json":
        return data
    config = json.loads(data)
    assert config["out"] == str(out)
    config["out"] = OUT_PLACEHOLDER
    return (json.dumps(config, indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digests(name, tmp_path, capsys):
    expected = json.loads(FIXTURE.read_text())[name]
    assert case_digests(name, tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, open(FIXTURE, "w") as fh:
        digests = {name: case_digests(name, Path(tmp)) for name in sorted(CASES)}
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    sys.stdout.write(f"wrote {len(digests)} cases to {FIXTURE}\n")
