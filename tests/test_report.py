"""`report`: the one-pass recomputation from trajectory.csv.

The group-then-sort recomputation that the streaming pass replaced is kept
here as the reference; the two must agree exactly.  `report` must exit 2
with a message naming the line and the field on malformed input, and
agree with summary.json on any run whose cool-down covers one step.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from signaltwin.cli import TRAJECTORY_HEADER, _trajectory_rows, main, read_trajectory
from signaltwin.delay import segment_delay
from signaltwin.metrics import recompute_from_trajectory
from signaltwin.network import ALL_MOVEMENTS, load_network, turn_of


def reference_recompute(rows, network, window, dt):
    """Group rows per vehicle, sort each trace by time, then split visits."""
    subject = network.subject_intersection
    by_vehicle = {}
    for t, vid, seg_id, _pos, _speed, _wait, acc in rows:
        by_vehicle.setdefault(vid, []).append((t, seg_id, acc))

    lo, hi = window
    control = []
    movement_delays = {m.value: [] for m in ALL_MOVEMENTS}
    for vid in sorted(by_vehicle):
        trace = by_vehicle[vid]
        trace.sort(key=lambda r: r[0])
        visits = []  # seg, t_in, t_last, acc_last
        for t, seg_id, acc in trace:
            if visits and visits[-1][0] == seg_id:
                seg, t_in, _, _ = visits[-1]
                visits[-1] = (seg, t_in, t, acc)
            else:
                visits.append((seg_id, t, t, acc))
        prev_acc = 0.0
        for i, (seg_id, t_in, t_last, acc_last) in enumerate(visits):
            seg = network.segments[seg_id]
            t_out = t_last + dt
            if i + 1 < len(visits) and seg.to_node == subject and lo <= t_out <= hi:
                control.append(segment_delay(t_in, t_out, seg.length, seg.free_flow_speed))
                nxt_dir = network.segments[visits[i + 1][0]].movement.direction
                turn = turn_of(seg.movement.direction, nxt_dir)
                movement = seg.left_movement if turn == "left" else seg.movement
                movement_delays[movement.value].append(acc_last - prev_acc)
            prev_acc = acc_last
    return control, movement_delays


SMALL_NETWORK = {"rows": 3, "cols": 3, "segment_length": 400.0, "lane_count": 1,
                 "pocket_length": 60.0, "free_flow_speed": 13.89}


def write_config(path, **extra):
    data = {"network": SMALL_NETWORK, "horizon": 900.0, "warmup": 150.0,
            "cooldown": 150.0, "base_vph": 60.0, "ladder_factor": 0.25, "seed": 42}
    data.update(extra)
    path.write_text(json.dumps(data))
    return path


def split_rows(path):
    with open(path, newline="") as fh:
        assert fh.readline() == TRAJECTORY_HEADER
        return [line.split(",") for line in fh]


@pytest.fixture(scope="module")
def run_dirs(tmp_path_factory):
    """Run directories of the equivalence matrix, name -> path."""
    root = tmp_path_factory.mktemp("runs")
    dirs = {}
    for k in (3, 9):
        cfg = write_config(root / f"s{k}.json", scenario=k)
        out = root / f"s{k}"
        assert main(["compare", "--config", str(cfg), "--algorithm", "baseline,dt1,dt2",
                     "--out", str(out)]) == 0
        dirs.update({f"{algo}-s{k}": out / algo for algo in ("baseline", "dt1", "dt2")})
    for name, extra in (("dt0.5-s9", {"dt": 0.5}), ("no-carryover-s9", {"carryover_turns": False})):
        cfg = write_config(root / f"{name}.json", scenario=9, algorithms=["dt2"], **extra)
        assert main(["simulate", "--config", str(cfg), "--out", str(root / name)]) == 0
        dirs[name] = root / name
    return dirs


EQUIVALENCE_CASES = [f"{a}-s{k}" for k in (3, 9) for a in ("baseline", "dt1", "dt2")] + [
    "dt0.5-s9", "no-carryover-s9",
]


@pytest.mark.parametrize("name", EQUIVALENCE_CASES)
def test_streaming_recompute_equals_group_then_sort(run_dirs, name):
    run_dir = run_dirs[name]
    network = load_network(run_dir / "network.json")
    window = tuple(json.loads((run_dir / "summary.json").read_text())["window"])
    dt = json.loads((run_dir / "config.json").read_text())["dt"]
    tuples = read_trajectory(run_dir / "trajectory.csv")
    assert all(type(vid) is type(seg_id) is str for _, vid, seg_id, *_ in tuples)
    expected = reference_recompute(tuples, network, window, dt)
    assert expected[0], "case has no measured traversals"
    assert recompute_from_trajectory(tuples, network, window, dt) == expected
    # Text fields, and the bytes fields that report reads.
    assert recompute_from_trajectory(
        iter(split_rows(run_dir / "trajectory.csv")), network, window, dt
    ) == expected
    assert recompute_from_trajectory(
        _trajectory_rows(run_dir / "trajectory.csv"), network, window, dt
    ) == expected


# -- malformed input fails at the boundary -------------------------------------


@pytest.fixture(scope="module")
def good_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("good")
    cfg = write_config(root / "cfg.json", scenario=3, horizon=400.0, warmup=50.0, cooldown=50.0)
    assert main(["simulate", "--config", str(cfg), "--out", str(root / "run")]) == 0
    return root / "run"


def broken_copy(good_run, tmp_path, edit_lines=None):
    """A copy of ``good_run``, with its trajectory lines edited if asked."""
    run = tmp_path / "run"
    run.mkdir()
    for name in ("network.json", "summary.json", "config.json", "trajectory.csv"):
        (run / name).write_bytes((good_run / name).read_bytes())
    if edit_lines is not None:
        lines = (run / "trajectory.csv").read_text().splitlines(keepends=True)
        (run / "trajectory.csv").write_text("".join(edit_lines(lines)))
    return run


def drop_field(path, field):
    data = json.loads(path.read_text())
    del data[field]
    path.write_text(json.dumps(data))


def report_error(run, capsys):
    capsys.readouterr()
    assert main(["report", "--out", str(run)]) == 2
    return capsys.readouterr().err


def replace_field(line, index, value):
    fields = line.rstrip("\n").split(",")
    fields[index] = value
    return ",".join(fields) + "\n"


def test_report_rejects_wrong_header(good_run, tmp_path, capsys):
    # A wrong header over no rows used to exit 0 with 0 traversals.
    run = broken_copy(good_run, tmp_path, lambda lines: ["t,vehicle,segment\n"])
    err = report_error(run, capsys)
    assert "line 1" in err and "header" in err


def test_report_rejects_a_carriage_return_before_the_header_end(good_run, tmp_path, capsys):
    # The header may end in "\r\n", as a row may, but holds no other "\r";
    # the message shows the line end.
    run = broken_copy(good_run, tmp_path,
                      lambda lines: [lines[0].replace("\n", "\r\r\n")] + lines[1:])
    err = report_error(run, capsys)
    assert "line 1" in err and "got 't,vehicle_id" in err and "\\r\\r\\n'" in err


def test_report_rejects_wrong_column_count(good_run, tmp_path, capsys):
    def truncate(lines):
        lines[5] = lines[5][: lines[5].rindex(",")] + "\n"
        return lines[:6]

    err = report_error(broken_copy(good_run, tmp_path, truncate), capsys)
    assert "line 6" in err and "expected 7 columns" in err


def test_report_rejects_non_numeric_t(good_run, tmp_path, capsys):
    def corrupt(lines):
        lines[4] = replace_field(lines[4], 0, "soon")
        return lines

    err = report_error(broken_copy(good_run, tmp_path, corrupt), capsys)
    assert "line 5" in err and "t 'soon'" in err


def test_report_rejects_non_numeric_accumulated(good_run, tmp_path, capsys):
    # Only the last row of a closed visit is read: corrupt the first
    # vehicle's last row on its origin segment.
    rows = [line.split(",") for line in (good_run / "trajectory.csv").read_text().splitlines()[1:]]
    vid, seg_id = rows[0][1], rows[0][2]
    target = max(i for i, row in enumerate(rows) if row[1] == vid and row[2] == seg_id)

    def corrupt(lines):
        lines[target + 1] = replace_field(lines[target + 1], 6, "lots")
        return lines

    err = report_error(broken_copy(good_run, tmp_path, corrupt), capsys)
    assert f"line {target + 2}" in err and "accumulated_waiting 'lots" in err


def test_report_names_the_line_of_a_previous_row_blocks_back(good_run, tmp_path, capsys):
    # The bad row is read only when its vehicle's next row comes, here
    # 400 rows (several 8 KiB read blocks) later: copies of a row of
    # another vehicle in the same step, which change nothing.
    rows = [line.split(",") for line in (good_run / "trajectory.csv").read_text().splitlines()[1:]]
    vid, seg_id = rows[0][1], rows[0][2]
    target = max(i for i, row in enumerate(rows) if row[1] == vid and row[2] == seg_id)
    filler = next(i for i, row in enumerate(rows) if row[0] == rows[target][0] and row[1] != vid)

    def corrupt(lines):
        lines[target + 1] = replace_field(lines[target + 1], 6, "lots")
        return lines[:target + 2] + [lines[filler + 1]] * 400 + lines[target + 2:]

    err = report_error(broken_copy(good_run, tmp_path, corrupt), capsys)
    assert f"line {target + 2}:" in err and "accumulated_waiting 'lots" in err


def test_report_names_the_line_of_a_repeated_row(good_run, tmp_path, capsys):
    # A copy of line 5 appended at the end is out of order at its own line.
    err = report_error(broken_copy(good_run, tmp_path, lambda lines: lines + [lines[4]]), capsys)
    n_lines = len((good_run / "trajectory.csv").read_text().splitlines())
    assert f"line {n_lines + 1}:" in err and "earlier than" in err


def test_report_rejects_unknown_segment(good_run, tmp_path, capsys):
    def corrupt(lines):
        lines[3] = replace_field(lines[3], 2, "nowhere:n9-9")
        return lines

    err = report_error(broken_copy(good_run, tmp_path, corrupt), capsys)
    assert "line 4" in err and "segment_id 'nowhere:n9-9'" in err


def test_report_rejects_time_going_backwards(good_run, tmp_path, capsys):
    def swap_steps(lines):
        first_t = lines[1].split(",", 1)[0]
        later = next(i for i, line in enumerate(lines[1:], 1) if not line.startswith(first_t + ","))
        return [lines[0], lines[later], lines[1]] + lines[later + 1:]

    err = report_error(broken_copy(good_run, tmp_path, swap_steps), capsys)
    assert "line 3" in err and "earlier than" in err


def edit_bytes(line, index, value):
    fields = line.split(b",")
    fields[index] = value
    return b",".join(fields)


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(lambda line: edit_bytes(line, 3, b"\xff\xfe"), "is not UTF-8 text",
                     id="position-not-utf8"),
        pytest.param(lambda line: edit_bytes(line, 2, b"n\xe9"), "is not UTF-8 text",
                     id="segment-id-not-utf8"),
        # Text mode split a row at a lone carriage return; it stays refused,
        # also in a field that recomputation never reads.
        pytest.param(lambda line: edit_bytes(line, 3, b"12\r.5"), "got a carriage return",
                     id="lone-carriage-return"),
        pytest.param(lambda line: line.replace(b"\n", b"\r\r\n"), "got a carriage return",
                     id="carriage-return-before-crlf"),
    ],
)
def test_report_rejects_unreadable_line(good_run, tmp_path, capsys, edit, message):
    # Each of the first two used to exit 3 with a UnicodeDecodeError.
    run = broken_copy(good_run, tmp_path)
    lines = (run / "trajectory.csv").read_bytes().splitlines(keepends=True)
    lines[5] = edit(lines[5])
    (run / "trajectory.csv").write_bytes(b"".join(lines))
    err = report_error(run, capsys)
    assert "line 6: " in err and message in err
    assert not (run / "report.json").exists()


@pytest.mark.parametrize(
    "edit",
    [
        # The header keeps its "\n"; every data row ends in "\r\n".
        pytest.param(lambda data: data.replace(b"\n", b"\r\n").replace(b"\r\n", b"\n", 1),
                     id="crlf-row-ends"),
        # As a CRLF checkout or editor leaves the file.
        pytest.param(lambda data: data.replace(b"\n", b"\r\n"), id="crlf-throughout"),
        pytest.param(lambda data: data.removesuffix(b"\n"), id="no-final-newline"),
    ],
)
def test_report_accepts_row_ends(good_run, tmp_path, edit):
    reports = []
    for name, change in (("plain", None), ("edited", edit)):
        (tmp_path / name).mkdir()
        run = broken_copy(good_run, tmp_path / name)
        if change is not None:
            path = run / "trajectory.csv"
            data = path.read_bytes()
            path.write_bytes(change(data))
            assert path.read_bytes() != data
        assert main(["report", "--out", str(run)]) == 0
        reports.append((run / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_report_rejects_config_without_dt(good_run, tmp_path, capsys):
    run = broken_copy(good_run, tmp_path)
    drop_field(run / "config.json", "dt")
    err = report_error(run, capsys)
    assert "config.json" in err and "'dt'" in err


def test_report_rejects_summary_without_window(good_run, tmp_path, capsys):
    run = broken_copy(good_run, tmp_path)
    drop_field(run / "summary.json", "window")
    err = report_error(run, capsys)
    assert "summary.json" in err and "'window'" in err


@pytest.mark.parametrize(
    "name, field, value",
    [
        pytest.param("config.json", "dt", float("inf"), id="dt-infinite"),
        pytest.param("summary.json", "window", [float("nan"), 350.0], id="window-nan"),
        pytest.param("summary.json", "window", [350.0, 50.0], id="window-reversed"),
        pytest.param("summary.json", "window", [50.0, float("inf")], id="window-end-infinite"),
    ],
)
def test_report_rejects_invalid_run_value(good_run, tmp_path, capsys, name, field, value):
    # Python's json reads NaN and Infinity; each of these used to exit 0.
    run = broken_copy(good_run, tmp_path)
    data = json.loads((run / name).read_text())
    data[field] = value
    (run / name).write_text(json.dumps(data))
    assert f"{name}: field '{field}'" in report_error(run, capsys)
    assert not (run / "report.json").exists()


def test_report_rejects_invalid_network_json(good_run, tmp_path, capsys):
    run = broken_copy(good_run, tmp_path)
    (run / "network.json").write_text("{")
    assert "network.json" in report_error(run, capsys)


def _segment(data, segment_id):
    return next(s for s in data["segments"] if s["id"] == segment_id)


@pytest.mark.parametrize(
    "edit, field",
    [
        pytest.param(lambda d: d["segments"][4].update(lane_count=2.7), "segments[4].lane_count",
                     id="lane-count-float"),
        pytest.param(lambda d: d["segments"][4].update(length="400"), "segments[4].length",
                     id="length-string"),
        pytest.param(lambda d: d["segments"][4].update(free_flow_speed=float("nan")),
                     "segments[4].free_flow_speed", id="free-flow-speed-nan"),
        pytest.param(lambda d: d["segments"][4].update(lanes=2), "segments[4].lanes",
                     id="segment-unknown-key"),
        pytest.param(lambda d: d["segments"][4].update(movement="XBT"), "segments[4].movement",
                     id="movement-unknown"),
        pytest.param(lambda d: _segment(d, "n0-1:n1-1").update(pocket_length=0.0),
                     "subject_intersection", id="subject-approach-without-pocket"),
        pytest.param(lambda d: d.update(nodes=[]), "nodes", id="nodes-not-object"),
        pytest.param(lambda d: d["nodes"].update({"n0-0": [0]}), "nodes.n0-0",
                     id="node-one-number"),
        pytest.param(lambda d: d["nodes"].update({"n0-0": [0, 0, 7]}), "nodes.n0-0",
                     id="node-three-numbers"),
        pytest.param(lambda d: d.update(extra=1), "extra", id="top-level-unknown-key"),
        pytest.param(lambda d: d.update(subject_intersection=5), "subject_intersection",
                     id="subject-not-string"),
        pytest.param(lambda d: d["boundary_nodes"].update({"n0-0": [0, 0]}),
                     "boundary_nodes.n0-0", id="node-also-boundary"),
        pytest.param(lambda d: [], "must be an object, got []", id="document-not-object"),
        pytest.param(lambda d: d["segments"][4].update(length=-1.0),
                     "segments[4].length must be positive", id="length-negative"),
    ],
)
def test_report_rejects_invalid_network_field(good_run, tmp_path, capsys, edit, field):
    # report reads network.json through the same checks as a network file.
    run = broken_copy(good_run, tmp_path)
    data = json.loads((run / "network.json").read_text())
    # An edit in place returns None; any other result replaces the document.
    replaced = edit(data)
    (run / "network.json").write_text(json.dumps(data if replaced is None else replaced))
    assert f"network.json: {field}" in report_error(run, capsys)
    assert not (run / "report.json").exists()


# -- report agrees with summary.json ------------------------------------------


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    rows=st.integers(min_value=1, max_value=3),
    cols=st.integers(min_value=1, max_value=3),
    dt=st.sampled_from([0.5, 1.0]),
    cooldown_steps=st.integers(min_value=1, max_value=60),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    scenario=st.integers(min_value=1, max_value=11),
    base_vph=st.floats(min_value=20.0, max_value=200.0),
)
def test_report_agrees_with_summary(rows, cols, dt, cooldown_steps, seed, scenario, base_vph):
    network = dict(SMALL_NETWORK, rows=rows, cols=cols)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        cfg = write_config(
            Path(tmp) / "cfg.json", network=network, dt=dt, horizon=300.0, warmup=60.0,
            cooldown=cooldown_steps * dt, seed=seed, scenario=scenario, base_vph=base_vph,
        )
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["report", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        report = json.loads((out / "report.json").read_text())
    assert report["measured_traversals"] == summary["measured_traversals"]
    assert report["mean_control_delay"] == pytest.approx(summary["mean_control_delay"], rel=1e-9)
    assert report["los"] == summary["los"]
    for movement, value in summary["aasd"].items():
        assert report["aasd"][movement] == pytest.approx(value, rel=1e-9, abs=1e-12)
