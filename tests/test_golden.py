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
# Origin/destination pairs on BASE_CONFIG's grid, whose subject is n1-1:
# north through the subject; east, turning north at the subject to the same
# exit; east along row 2, turning north at n2-1 to that exit again; east
# along row 2; north along column 0; west, turning south at n0-2.
TURNING_PAIRS = (
    ("bs-1:n0-1", "n2-1:bn-1"),
    ("bw-1:n1-0", "n2-1:bn-1"),
    ("bw-2:n2-0", "n2-1:bn-1"),
    ("bw-2:n2-0", "n2-2:be-2"),
    ("bs-0:n0-0", "n2-0:bn-0"),
    ("be-0:n0-2", "n0-2:bs-2"),
)


def turning_phase(start: float, rates: tuple[float, ...]) -> dict:
    """A demand-program phase of TURNING_PAIRS at ``rates`` (vph)."""
    flows = [{"origin": o, "destination": d, "vph": v} for (o, d), v in zip(TURNING_PAIRS, rates)]
    return {"start": start, "flows": flows}


RUN_ARTIFACTS = (
    "trajectory.csv", "signals.csv", "summary.json", "report.json",
    "network.json", "departures.csv", "config.json",
)
# In place of a list of artifacts: every file the commands write.
EVERY_FILE = None
COMPARE = {"algorithms": ["baseline", "dt1", "dt2"]}
# config.json records the output directory, which differs between runs.
OUT_PLACEHOLDER = "<out>"

# Four turning pairs in the subject's slice and two outside it, on two
# lanes, at rates that leave vehicles waiting at their origins, in both parts.
TURNS_2LANE = {
    **BASE_CONFIG, "log_trajectory": False,
    "network": {**BASE_CONFIG["network"], "lane_count": 2},
    "flows": turning_phase(0.0, (3000.0, 2400.0, 1500.0, 2400.0, 3600.0, 3600.0))["flows"],
}

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
    # Turning flows at parallelism 2.  The subject's slice holds the two
    # pairs through the subject, the third, which shares only their exit
    # segment, and the fourth, which shares only its first two segments
    # with the third; the last two pairs are outside it.
    "twin-turns-p2": (
        {**TWIN_CONFIG, "horizon": 900.0, "parallelism": 2,
         "twin": {**TWIN_CONFIG["twin"], "demand_program": [
             turning_phase(0.0, (200.0, 150.0, 120.0, 180.0, 100.0, 90.0)),
             turning_phase(450.0, (300.0, 200.0, 180.0, 120.0, 150.0, 140.0)),
         ]}},
        ("twin", "report"),
        RUN_ARTIFACTS + ("twin_manifest.json",),
    ),
    # compare runs the flows outside the subject's slice once, and the
    # slice once per algorithm.
    "compare-s9": (
        {**BASE_CONFIG, **COMPARE, "scenario": 9, "log_trajectory": False},
        ("compare",),
        EVERY_FILE,
    ),
    "compare-turns-2lane": (
        {**TURNS_2LANE, **COMPARE},
        ("compare",),
        EVERY_FILE,
    ),
    # A compare that logs its trajectory runs every flow per algorithm.
    "compare-s3-trajectory": (
        {**BASE_CONFIG, **COMPARE, "scenario": 3},
        ("compare",),
        EVERY_FILE,
    ),
    # simulate without a trajectory runs the rest once and the slice once:
    # 8 of the 12 straight pairs are in the rest.
    "simulate-dt1-s9-notraj": (
        {**BASE_CONFIG, "scenario": 9, "algorithms": ["dt1"], "log_trajectory": False},
        ("simulate",),
        EVERY_FILE,
    ),
    # compare-turns-2lane's network and flows, as one simulate run.
    "simulate-dt2-turns-2lane-notraj": (
        {**TURNS_2LANE, "algorithms": ["dt2"]},
        ("simulate",),
        EVERY_FILE,
    ),
}


def case_digests(name: str, work_dir: Path) -> dict[str, str]:
    config, commands, artifacts = CASES[name]
    out = work_dir / name
    cfg_path = work_dir / f"{name}.json"
    cfg_path.write_text(json.dumps({**config, "out": str(out)}))
    for command in commands:
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0, command
    if artifacts is EVERY_FILE:
        artifacts = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    return {a: hashlib.sha256(_artifact_bytes(out, a)).hexdigest() for a in artifacts}


def _artifact_bytes(out: Path, artifact: str) -> bytes:
    data = (out / artifact).read_bytes()
    if Path(artifact).name != "config.json":
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
