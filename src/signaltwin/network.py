"""Static road-network model: grid topology, approaches, pockets, routing.

The generator builds a rectangular grid of 4-way intersections.  Every
directed roadway between adjacent nodes is one segment, labelled with the
through movement it carries (EBT, WBT, NBT, SBT); a segment entering an
intersection additionally carries a left-turn pocket near its stop line,
which hosts the paired left movement (EBL, WBL, NBL, SBL).  Boundary
stub nodes ring the grid so that every intersection, including corners,
is fed from all four compass directions.

Networks are immutable after construction and safe to share across
concurrently running simulations.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterator, NamedTuple

from .checks import ConfigError, _checked, _hints, _typed

METERS_PER_MILE = 1609.344

SCHEMA_VERSION = 1

# Grid axes: x grows eastward, y grows northward.
_DIRECTION_VECTORS = {"E": (1, 0), "W": (-1, 0), "N": (0, 1), "S": (0, -1)}
_LEFT_OF = {"E": "N", "N": "W", "W": "S", "S": "E"}
_RIGHT_OF = {"E": "S", "S": "W", "W": "N", "N": "E"}


class Movement(Enum):
    """The eight signal-controlled movements at a 4-way intersection."""

    EBT = "EBT"
    WBT = "WBT"
    NBT = "NBT"
    SBT = "SBT"
    EBL = "EBL"
    WBL = "WBL"
    NBL = "NBL"
    SBL = "SBL"

    @property
    def direction(self) -> str:
        """Compass letter of the direction of travel."""
        return self.value[0]

    @property
    def is_left(self) -> bool:
        return self.value.endswith("L")

    @property
    def through(self) -> "Movement":
        """The through movement sharing this movement's direction."""
        return Movement(self.value[0] + "BT")


THROUGH_MOVEMENTS = (Movement.EBT, Movement.WBT, Movement.NBT, Movement.SBT)
LEFT_MOVEMENTS = (Movement.EBL, Movement.WBL, Movement.NBL, Movement.SBL)
ALL_MOVEMENTS = THROUGH_MOVEMENTS + LEFT_MOVEMENTS


def through_movement(direction: str) -> Movement:
    return Movement(direction + "BT")


def left_movement(direction: str) -> Movement:
    return Movement(direction + "BL")


def turn_of(direction_from: str, direction_to: str) -> str:
    """Classify the turn between two travel directions."""
    if direction_from == direction_to:
        return "straight"
    if _LEFT_OF[direction_from] == direction_to:
        return "left"
    if _RIGHT_OF[direction_from] == direction_to:
        return "right"
    return "uturn"


class NetworkError(ValueError):
    """Invalid network construction or query."""


class NoPathError(NetworkError):
    """No route exists between the requested segments."""


class SegmentRangeError(NetworkError):
    """A segment's ``field`` holds a value of its type that breaks ``rule``."""

    def __init__(self, segment_id: str, field: str, rule: str) -> None:
        super().__init__(f"segment {segment_id}: {field} {rule}")
        self.field, self.rule = field, rule


class UnknownIdError(KeyError):
    """A node or segment id is not part of the network."""


@dataclass(frozen=True)
class ApproachSegment:
    """One directed roadway between two nodes.

    ``movement`` is the through movement the segment carries into its
    ``to_node``.  A positive ``pocket_length`` means the last stretch of
    the segment holds a dedicated left-turn pocket serving the paired
    left movement; 0 marks a through-only segment (e.g. an exit stub).
    """

    id: str
    from_node: str
    to_node: str
    length: float
    lane_count: int
    movement: Movement
    pocket_length: float
    free_flow_speed: float

    def __post_init__(self) -> None:
        for name, ok, rule in (
            ("length", self.length > 0.0, "must be positive"),
            ("lane_count", self.lane_count >= 1, "must be >= 1"),
            ("pocket_length", 0.0 <= self.pocket_length < self.length,
             "must satisfy 0 <= pocket < length"),
            ("free_flow_speed", self.free_flow_speed > 0.0, "must be positive"),
        ):
            if not ok:
                raise SegmentRangeError(self.id, name, f"{rule}, got {getattr(self, name)!r}")

    @property
    def has_pocket(self) -> bool:
        return self.pocket_length > 0.0

    @property
    def pocket_start(self) -> float:
        """Distance from segment start at which the pocket begins."""
        return self.length - self.pocket_length

    @property
    def left_movement(self) -> Movement:
        return left_movement(self.movement.direction)


class ApproachRef(NamedTuple):
    """One of the eight logical approaches at an intersection."""

    segment_id: str
    movement: Movement


Route = tuple[str, ...]


class Network:
    """Immutable directed road network with one controlled intersection.

    ``nodes`` holds the signalized intersections; boundary stubs where
    traffic enters and leaves the network are kept separately.
    """

    def __init__(
        self,
        nodes: dict[str, tuple[float, float]],
        boundary_nodes: dict[str, tuple[float, float]],
        segments: dict[str, ApproachSegment],
        subject_intersection: str,
    ) -> None:
        if subject_intersection not in nodes:
            raise NetworkError(f"subject_intersection {subject_intersection!r} is not a node")
        # A boundary stub is where traffic enters or leaves, never an intersection.
        if both := sorted(nodes.keys() & boundary_nodes.keys()):
            raise NetworkError(f"boundary_nodes.{both[0]}: {both[0]!r} is also in nodes")
        # The subject's decision input reads one incoming segment per
        # through movement, and that segment's pocket for the paired left.
        carried = sorted(
            seg.movement.value if seg.has_pocket else f"{seg.movement.value} without pocket"
            for seg in segments.values() if seg.to_node == subject_intersection
        )
        if carried != sorted(m.value for m in THROUGH_MOVEMENTS):
            raise NetworkError(
                f"subject_intersection {subject_intersection!r}: incoming segments must carry "
                f"each through movement exactly once, each with a left-turn pocket, got {carried}"
            )
        self.nodes = dict(nodes)
        self.boundary_nodes = dict(boundary_nodes)
        self.segments = dict(segments)
        self.subject_intersection = subject_intersection
        # (origin, destination) -> route, filled by shortest_path.
        self._routes: dict[tuple[str, str], Route] = {}

        self._incoming: dict[str, list[str]] = {n: [] for n in self._all_nodes()}
        self._outgoing: dict[str, list[str]] = {n: [] for n in self._all_nodes()}
        for seg in self.segments.values():
            if seg.from_node not in self._outgoing or seg.to_node not in self._incoming:
                raise NetworkError(f"segment {seg.id} references unknown node")
            self._outgoing[seg.from_node].append(seg.id)
            self._incoming[seg.to_node].append(seg.id)
        for lst in self._incoming.values():
            lst.sort()
        for lst in self._outgoing.values():
            lst.sort()

    def _all_nodes(self) -> Iterator[str]:
        yield from self.nodes
        yield from self.boundary_nodes

    # -- queries ---------------------------------------------------------

    def segment(self, segment_id: str) -> ApproachSegment:
        try:
            return self.segments[segment_id]
        except KeyError:
            raise UnknownIdError(segment_id) from None

    def incoming(self, node_id: str) -> list[str]:
        if node_id not in self._incoming:
            raise UnknownIdError(node_id)
        return list(self._incoming[node_id])

    def approaches(self, node_id: str) -> dict[Movement, ApproachRef]:
        """The logical approaches at an intersection, keyed by movement.

        Each incoming segment contributes its through movement and, when
        it carries a pocket, the paired left movement.
        """
        if node_id not in self.nodes:
            raise UnknownIdError(node_id)
        refs: dict[Movement, ApproachRef] = {}
        for seg_id in self._incoming[node_id]:
            seg = self.segments[seg_id]
            refs[seg.movement] = ApproachRef(seg_id, seg.movement)
            if seg.has_pocket:
                refs[seg.left_movement] = ApproachRef(seg_id, seg.left_movement)
        return refs

    def is_peripheral_entry(self, segment_id: str) -> bool:
        return self.segment(segment_id).from_node in self.boundary_nodes

    def is_peripheral_exit(self, segment_id: str) -> bool:
        return self.segment(segment_id).to_node in self.boundary_nodes

    def peripheral_entries(self) -> list[str]:
        return sorted(s for s in self.segments if self.is_peripheral_entry(s))

    def peripheral_exits(self) -> list[str]:
        return sorted(s for s in self.segments if self.is_peripheral_exit(s))

    def straight_od_pairs(self) -> list[tuple[str, str]]:
        """Entry/exit pairs that cross the network without turning."""
        pairs = []
        for entry_id in self.peripheral_entries():
            seg = self.segments[entry_id]
            direction = seg.movement.direction
            node = seg.to_node
            while True:
                nxt = _same_direction(self, self._outgoing, node, direction)
                if nxt is None:
                    break
                node = self.segments[nxt].to_node
                if node in self.boundary_nodes:
                    pairs.append((entry_id, nxt))
                    break
        return pairs


def _same_direction(
    network: Network, adjacency: dict[str, list[str]], node_id: str, direction: str
) -> str | None:
    """The first segment of ``adjacency[node_id]`` that heads in ``direction``."""
    for seg_id in adjacency.get(node_id, ()):
        if network.segments[seg_id].movement.direction == direction:
            return seg_id
    return None


# -- construction --------------------------------------------------------


def build_grid(
    rows: int,
    cols: int,
    segment_length: float = 650.0,
    lane_count: int = 2,
    pocket_length: float = 80.0,
    free_flow_speed: float = 13.89,
) -> Network:
    """Build a rows x cols grid of 4-way intersections with boundary stubs.

    Every intersection is fed from all four compass directions; segments
    entering an intersection carry a left-turn pocket, exit stubs do not.
    The subject intersection defaults to the grid centre.
    """
    if rows < 1 or cols < 1:
        raise NetworkError("grid must have at least 1 row and 1 column")
    if segment_length <= 0.0 or free_flow_speed <= 0.0 or lane_count < 1:
        raise NetworkError("segment_length, free_flow_speed and lane_count must be positive")
    if not 0.0 <= pocket_length < segment_length:
        raise NetworkError("pocket_length must satisfy 0 <= pocket < segment_length")

    length = float(segment_length)
    nodes: dict[str, tuple[float, float]] = {}
    boundary: dict[str, tuple[float, float]] = {}
    for r in range(rows):
        for c in range(cols):
            nodes[f"n{r}-{c}"] = (c * length, r * length)
    for c in range(cols):
        boundary[f"bs-{c}"] = (c * length, -length)
        boundary[f"bn-{c}"] = (c * length, rows * length)
    for r in range(rows):
        boundary[f"bw-{r}"] = (-length, r * length)
        boundary[f"be-{r}"] = (cols * length, r * length)

    def node_at(r: int, c: int) -> str:
        if 0 <= r < rows and 0 <= c < cols:
            return f"n{r}-{c}"
        if r == -1 and 0 <= c < cols:
            return f"bs-{c}"
        if r == rows and 0 <= c < cols:
            return f"bn-{c}"
        if c == -1 and 0 <= r < rows:
            return f"bw-{r}"
        if c == cols and 0 <= r < rows:
            return f"be-{r}"
        raise NetworkError(f"no node at grid position ({r}, {c})")

    segments: dict[str, ApproachSegment] = {}

    def add_segment(u: str, v: str, direction: str) -> None:
        seg_id = f"{u}:{v}"
        pocket = pocket_length if v in nodes else 0.0
        segments[seg_id] = ApproachSegment(
            id=seg_id,
            from_node=u,
            to_node=v,
            length=length,
            lane_count=lane_count,
            movement=through_movement(direction),
            pocket_length=pocket,
            free_flow_speed=free_flow_speed,
        )

    for r in range(rows):
        for c in range(cols):
            here = node_at(r, c)
            for direction, (dc, dr) in _DIRECTION_VECTORS.items():
                neighbour = node_at(r + dr, c + dc)
                add_segment(here, neighbour, direction)
                # The reverse roadway is added when the neighbour is a
                # boundary stub; interior reverses come from the
                # neighbour's own loop iteration.
                if neighbour not in nodes:
                    opposite = {"E": "W", "W": "E", "N": "S", "S": "N"}[direction]
                    add_segment(neighbour, here, opposite)

    subject = f"n{rows // 2}-{cols // 2}"
    return Network(nodes, boundary, segments, subject)


# -- routing --------------------------------------------------------------


def shortest_path(network: Network, origin: str, destination: str) -> Route:
    """Minimum-length route between two peripheral segments.

    Among equal-length routes the lexicographically smallest sequence of
    segment ids is returned, so routing is fully deterministic.  Routes
    are memoised on the network, which never changes; a pair that raises
    is not memoised, so it raises again.
    """
    route = network._routes.get((origin, destination))
    if route is None:
        route = network._routes[origin, destination] = _shortest_path(network, origin, destination)
    return route


def _shortest_path(network: Network, origin: str, destination: str) -> Route:
    network.segment(origin)  # raises for unknown ids
    dst = network.segment(destination)
    if origin == destination:
        if not (network.is_peripheral_entry(origin) or network.is_peripheral_exit(origin)):
            raise NetworkError(f"segment {origin} is not peripheral")
        return (origin,)
    if not network.is_peripheral_entry(origin):
        raise NetworkError(f"origin {origin} is not a peripheral entry segment")
    if not network.is_peripheral_exit(destination):
        raise NetworkError(f"destination {destination} is not a peripheral exit segment")

    # Distance-to-destination per segment (total length including the
    # segment itself), via Dijkstra over the reversed segment graph.
    rdist: dict[str, float] = {destination: dst.length}
    heap: list[tuple[float, str]] = [(dst.length, destination)]
    settled: set[str] = set()
    while heap:
        d, seg_id = heapq.heappop(heap)
        if seg_id in settled:
            continue
        settled.add(seg_id)
        pred_node = network.segments[seg_id].from_node
        for prev_id in network._incoming.get(pred_node, ()):
            nd = d + network.segments[prev_id].length
            if nd < rdist.get(prev_id, float("inf")):
                rdist[prev_id] = nd
                heapq.heappush(heap, (nd, prev_id))

    if origin not in rdist:
        raise NoPathError(f"no route from {origin} to {destination}")

    # Walk the shortest-path DAG greedily, taking the smallest segment id
    # among successors that still lie on a minimum-length completion.
    tol = 1e-6
    path = [origin]
    current = origin
    while current != destination:
        cur_seg = network.segments[current]
        remaining = rdist[current] - cur_seg.length
        best: str | None = None
        for nxt in network._outgoing.get(cur_seg.to_node, ()):
            if nxt in rdist and abs(rdist[nxt] - remaining) <= tol * max(1.0, remaining):
                if best is None or nxt < best:
                    best = nxt
        if best is None:  # pragma: no cover - rdist guarantees a successor
            raise NoPathError(f"no route from {origin} to {destination}")
        path.append(best)
        current = best
    return tuple(path)


def upstream_approach(network: Network, approach: str) -> str | None:
    """The same-direction approach feeding this one from the previous node.

    Returns None for peripheral entry approaches, which have no upstream.
    """
    seg = network.segment(approach)
    if seg.from_node in network.boundary_nodes:
        return None
    return _same_direction(network, network._incoming, seg.from_node, seg.movement.direction)


# -- serialization --------------------------------------------------------

# The top-level keys of a network file and their types.
_FILE = {"schema_version": int, "subject_intersection": str, "nodes": dict,
         "boundary_nodes": dict, "segments": list[dict], "adjacency": dict}
# A segment row holds ApproachSegment's fields, with from_node and to_node
# spelled from and to: row key -> field name, and row key -> type.
_SEGMENT_FIELDS = {name.removesuffix("_node"): name for name in _hints(ApproachSegment)}
_SEGMENT_ROW = {key: _hints(ApproachSegment)[name] for key, name in _SEGMENT_FIELDS.items()}


def network_to_dict(network: Network) -> dict:
    adjacency = {}
    for node_id in sorted(network.nodes):
        entry = {}
        for movement, ref in sorted(
            network.approaches(node_id).items(), key=lambda kv: kv[0].value
        ):
            entry[movement.value] = {
                "segment": ref.segment_id,
                "upstream": upstream_approach(network, ref.segment_id),
            }
        adjacency[node_id] = entry
    return {
        "schema_version": SCHEMA_VERSION,
        "subject_intersection": network.subject_intersection,
        "nodes": {n: list(p) for n, p in sorted(network.nodes.items())},
        "boundary_nodes": {n: list(p) for n, p in sorted(network.boundary_nodes.items())},
        "segments": [
            {**{key: getattr(s, name) for key, name in _SEGMENT_FIELDS.items()},
             "movement": s.movement.value}
            for _, s in sorted(network.segments.items())
        ],
        "adjacency": adjacency,
    }


def network_from_dict(data: dict) -> Network:
    """The network of a document that ``network_to_dict`` wrote.  Every key
    is checked and required (``adjacency`` is derived, so it is not read),
    every value must be of its type and a segment id may appear only once;
    a problem raises NetworkError naming the field."""
    try:
        data = _checked(data, _FILE)
        if missing := sorted(_FILE.keys() - data.keys() - {"adjacency"}):
            raise NetworkError(f"lacks {', '.join(missing)}")
        if data["schema_version"] != SCHEMA_VERSION:
            raise NetworkError(
                f"unsupported network schema version {data['schema_version']!r} "
                f"(expected {SCHEMA_VERSION})"
            )
        nodes, boundary = (
            {n: _point(p, f"{key}.{n}") for n, p in data[key].items()}
            for key in ("nodes", "boundary_nodes")
        )
        segments: dict[str, ApproachSegment] = {}
        for i, row in enumerate(data["segments"]):
            row = _checked(row, _SEGMENT_ROW, f"segments[{i}]")
            if missing := sorted(_SEGMENT_ROW.keys() - row.keys()):
                raise NetworkError(f"segments[{i}] lacks {', '.join(missing)}")
            if row["id"] in segments:
                raise NetworkError(f"segments[{i}].id: duplicate segment id {row['id']!r}")
            try:
                segments[row["id"]] = ApproachSegment(
                    **{name: row[key] for key, name in _SEGMENT_FIELDS.items()}
                )
            except SegmentRangeError as exc:  # every range-checked field is its own row key
                raise NetworkError(f"segments[{i}].{exc.field} {exc.rule}") from None
    except ConfigError as exc:
        raise NetworkError(str(exc)) from None
    return Network(nodes, boundary, segments, data["subject_intersection"])


def _point(value, path: str) -> tuple[float, float]:
    """A node position: exactly two finite numbers."""
    point = _typed(value, tuple[float, ...], path)
    if len(point) != 2:
        raise NetworkError(f"{path} must be [x, y], got {value!r}")
    return point


def save_network(network: Network, path: str | Path) -> None:
    Path(path).write_text(json.dumps(network_to_dict(network), indent=2, sort_keys=True))


def load_network(path: str | Path) -> Network:
    return network_from_dict(json.loads(Path(path).read_text()))
