"""Grid topology, routing and serialization."""

import json
from collections import deque

import pytest

from signaltwin.network import (
    ALL_MOVEMENTS,
    Movement,
    NetworkError,
    NoPathError,
    UnknownIdError,
    build_grid,
    load_network,
    network_from_dict,
    network_to_dict,
    save_network,
    shortest_path,
    upstream_approach,
)


@pytest.fixture(scope="module")
def grid3():
    return build_grid(3, 3, 500.0, 2, 80.0, 13.89)


def outgoing(net, node):
    """Oracle: the ids of the segments leaving a node, from the segment table."""
    return sorted(s.id for s in net.segments.values() if s.from_node == node)


def enumerate_incident(net, node):
    """Oracle: count approaches at a node purely from the segment table."""
    incoming = [s for s in net.segments.values() if s.to_node == node]
    approaches = len(incoming) + sum(1 for s in incoming if s.pocket_length > 0)
    return len(incoming), len(outgoing(net, node)), approaches


def test_grid_3x3_shape(grid3):
    assert len(grid3.nodes) == 9
    assert grid3.subject_intersection == "n1-1"
    in_count, out_count, approaches = enumerate_incident(grid3, "n1-1")
    assert (in_count, out_count) == (4, 4)
    assert approaches == 8
    assert set(grid3.approaches("n1-1")) == set(ALL_MOVEMENTS)


def test_grid_1x1_peripheral_edges():
    net = build_grid(1, 1, 500.0, 1, 50.0, 13.89)
    assert len(net.nodes) == 1
    in_count, out_count, _ = enumerate_incident(net, "n0-0")
    assert (in_count, out_count) == (4, 4)
    assert all(net.is_peripheral_entry(s) for s in net.incoming("n0-0"))
    assert all(net.is_peripheral_exit(s) for s in outgoing(net, "n0-0"))


def test_grid_2x2_corner_approaches():
    # Frozen from the incident-edge enumeration oracle: every corner of a
    # 2x2 grid is fed from all four compass directions (two neighbours,
    # two boundary stubs), so it carries the full 8 logical approaches.
    net = build_grid(2, 2, 300.0, 2, 60.0, 13.89)
    assert len(net.nodes) == 4
    for node in net.nodes:
        in_count, out_count, approaches = enumerate_incident(net, node)
        assert (in_count, out_count, approaches) == (4, 4, 8)


@pytest.mark.parametrize(
    "args",
    [
        (0, 3, 500.0, 2, 80.0, 13.89),
        (3, 0, 500.0, 2, 80.0, 13.89),
        (3, 3, -1.0, 2, 80.0, 13.89),
        (3, 3, 500.0, 0, 80.0, 13.89),
        (3, 3, 500.0, 2, 500.0, 13.89),
        (3, 3, 500.0, 2, -5.0, 13.89),
        (3, 3, 500.0, 2, 80.0, 0.0),
    ],
)
def test_build_grid_rejects_bad_dimensions(args):
    with pytest.raises(NetworkError):
        build_grid(*args)


def test_movement_labels(grid3):
    seg = grid3.segment("n1-0:n1-1")
    assert seg.movement is Movement.EBT
    assert seg.left_movement is Movement.EBL
    assert seg.has_pocket
    exit_stub = grid3.segment("n1-2:be-1")
    assert exit_stub.movement is Movement.EBT
    assert not exit_stub.has_pocket


def test_shortest_path_straight_corridor(grid3):
    route = shortest_path(grid3, "bw-1:n1-0", "n1-2:be-1")
    assert route == ("bw-1:n1-0", "n1-0:n1-1", "n1-1:n1-2", "n1-2:be-1")


def test_shortest_path_identity(grid3):
    assert shortest_path(grid3, "bw-1:n1-0", "bw-1:n1-0") == ("bw-1:n1-0",)


def enumerate_simple_paths(net, origin, destination, max_len=6):
    """Oracle: all simple segment paths up to a length bound, by DFS."""
    paths = []
    stack = [(origin, (origin,), {net.segments[origin].from_node, net.segments[origin].to_node})]
    while stack:
        seg_id, path, seen = stack.pop()
        if seg_id == destination:
            paths.append(path)
            continue
        if len(path) >= max_len:
            continue
        node = net.segments[seg_id].to_node
        for nxt in outgoing(net, node):
            nxt_to = net.segments[nxt].to_node
            if nxt_to in seen:
                continue
            stack.append((nxt, path + (nxt,), seen | {nxt_to}))
    return paths


def test_shortest_path_tie_break_lexicographic(grid3):
    # L-shaped OD with several equal-length candidates: the routing must
    # return the lexicographically smallest id sequence among the shortest.
    origin, destination = "bw-0:n0-0", "n2-1:bn-1"
    route = shortest_path(grid3, origin, destination)
    candidates = enumerate_simple_paths(grid3, origin, destination)
    assert candidates, "oracle found no paths"
    lengths = {p: sum(grid3.segments[s].length for s in p) for p in candidates}
    best_len = min(lengths.values())
    shortest = sorted(p for p, l in lengths.items() if l == best_len)
    assert sum(grid3.segments[s].length for s in route) == best_len
    assert route == shortest[0]


def test_shortest_path_errors(grid3):
    with pytest.raises(NetworkError):
        shortest_path(grid3, "n1-0:n1-1", "n1-2:be-1")  # interior origin
    with pytest.raises(UnknownIdError):
        shortest_path(grid3, "nope", "n1-2:be-1")


def test_shortest_path_memo_keeps_errors_and_serialisation(tmp_path):
    net = build_grid(3, 3, 500.0, 2, 80.0, 13.89)
    before = network_to_dict(net)
    save_network(net, tmp_path / "before.json")
    pairs = [(o, d) for o in net.peripheral_entries() for d in net.peripheral_exits()]
    routes = [shortest_path(net, o, d) for o, d in pairs]
    assert [shortest_path(net, o, d) for o, d in pairs] == routes
    assert all(shortest_path(net, o, d) is r for (o, d), r in zip(pairs, routes))  # memoised
    assert network_to_dict(net) == before
    save_network(net, tmp_path / "after.json")
    assert (tmp_path / "after.json").read_bytes() == (tmp_path / "before.json").read_bytes()
    for _ in range(2):  # a pair that raised raises again
        with pytest.raises(NetworkError):
            shortest_path(net, "n1-0:n1-1", "n1-2:be-1")  # interior origin
        with pytest.raises(NetworkError):
            shortest_path(net, "bw-1:n1-0", "n1-0:n1-1")  # interior destination
        with pytest.raises(UnknownIdError):
            shortest_path(net, "nope", "n1-2:be-1")
        with pytest.raises(UnknownIdError):
            shortest_path(net, "bw-1:n1-0", "nope")


def test_networks_never_share_routes():
    # The same ids in two networks: a longer segment changes the route.
    origin, destination = "bw-0:n0-0", "n2-1:bn-1"
    plain = build_grid(3, 3, 500.0, 2, 80.0, 13.89)
    data = network_to_dict(plain)
    route = shortest_path(plain, origin, destination)
    for row in data["segments"]:
        if row["id"] == route[1]:
            row["length"] = 900.0
    detour = network_from_dict(data)
    other = shortest_path(detour, origin, destination)
    assert other != route
    assert other == shortest_path(network_from_dict(data), origin, destination)
    assert shortest_path(plain, origin, destination) == route


def test_no_path_error():
    net = build_grid(1, 2, 400.0, 1, 40.0, 13.89)
    data = network_to_dict(net)
    # Remove every segment leaving the western node except its exit stubs,
    # so no entry on the west can reach the eastern exits.  The eastern
    # node then lacks an approach, so the western node is made the subject.
    data["segments"] = [
        s for s in data["segments"]
        if not (s["from"] == "n0-0" and s["to"] == "n0-1")
    ]
    data["subject_intersection"] = "n0-0"
    broken = network_from_dict(data)
    with pytest.raises(NoPathError):
        shortest_path(broken, "bw-0:n0-0", "n0-1:be-0")


def test_upstream_examples(grid3):
    assert upstream_approach(grid3, "n1-0:n1-1") == "bw-1:n1-0"
    assert upstream_approach(grid3, "bw-1:n1-0") is None
    with pytest.raises(UnknownIdError):
        upstream_approach(grid3, "missing")


def test_upstream_exhaustive_4x4():
    net = build_grid(4, 4, 500.0, 2, 80.0, 13.89)
    for seg in net.segments.values():
        upstream = upstream_approach(net, seg.id)
        if seg.from_node in net.boundary_nodes:
            assert upstream is None
        else:
            assert upstream is not None
            up = net.segments[upstream]
            assert up.to_node == seg.from_node
            assert up.movement == seg.movement


def test_interior_strong_connectivity():
    for rows, cols in ((2, 2), (3, 3), (4, 4)):
        net = build_grid(rows, cols, 500.0, 2, 80.0, 13.89)
        nodes = set(net.nodes)
        start = next(iter(sorted(nodes)))
        seen = {start}
        frontier = deque([start])
        while frontier:
            node = frontier.popleft()
            for seg_id in outgoing(net, node):
                nxt = net.segments[seg_id].to_node
                if nxt in nodes and nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        assert seen == nodes


def test_shortest_path_never_beaten_by_enumeration(grid3):
    grid4 = build_grid(4, 4, 500.0, 2, 80.0, 13.89)
    cases = [
        (grid3, "bw-0:n0-0", "n0-2:be-0"),
        (grid3, "bw-1:n1-0", "n2-1:bn-1"),
        (grid3, "bs-0:n0-0", "n0-1:bs-1"),
        (grid4, "bw-1:n1-0", "n3-2:bn-2"),
        (grid4, "bs-3:n0-3", "n0-0:bw-0"),
    ]
    for net, origin, destination in cases:
        route = shortest_path(net, origin, destination)
        route_len = sum(net.segments[s].length for s in route)
        for path in enumerate_simple_paths(net, origin, destination, max_len=7):
            assert route_len <= sum(net.segments[s].length for s in path)


def test_route_segments_share_nodes(grid3):
    route = shortest_path(grid3, "bs-0:n0-0", "n2-2:bn-2")
    for a, b in zip(route, route[1:]):
        assert grid3.segments[a].to_node == grid3.segments[b].from_node


def test_json_round_trip(tmp_path, grid3):
    path = tmp_path / "net.json"
    save_network(grid3, path)
    loaded = load_network(path)
    assert network_to_dict(loaded) == network_to_dict(grid3)


def test_json_rejects_unknown_schema(tmp_path, grid3):
    data = network_to_dict(grid3)
    data["schema_version"] = 99
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(NetworkError):
        load_network(path)


def test_adjacency_in_file(grid3):
    data = network_to_dict(grid3)
    assert set(data["adjacency"]) == set(grid3.nodes)
    center = data["adjacency"]["n1-1"]
    assert set(center) == {m.value for m in ALL_MOVEMENTS}
    assert center["EBT"]["segment"] == "n1-0:n1-1"
    assert center["EBT"]["upstream"] == "bw-1:n1-0"
