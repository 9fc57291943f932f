"""2D-mesh geometry and XY (dimension-ordered) routing."""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.engine.errors import ConfigurationError

Link = Tuple[int, int]  # directed (from_node, to_node)


class MeshTopology:
    """A width x height mesh; node ``n`` sits at (n % width, n // width).

    The mesh may be ragged (num_nodes < width * height), but an XY route
    that runs along the short last row leaves the mesh, and :meth:`route`
    raises for it. Machines always use a full rectangle (64 -> 8x8,
    32 -> 8x4; see ``SystemConfig.mesh_width``).
    """

    def __init__(self, num_nodes: int, width: int) -> None:
        if num_nodes < 1:
            raise ConfigurationError("mesh needs at least one node")
        if width < 1:
            raise ConfigurationError("mesh width must be >= 1")
        self.num_nodes = num_nodes
        self.width = width
        self.height = (num_nodes + width - 1) // width

    def coordinates_of(self, node: int) -> Tuple[int, int]:
        """(x, y) tile coordinates of a node id."""
        self._check(node)
        return node % self.width, node // self.width

    def node_at(self, x: int, y: int) -> int:
        node = y * self.width + x
        self._check(node)
        return node

    def hops(self, src: int, dst: int) -> int:
        """Manhattan distance — the hop count of the XY route."""
        sx, sy = self.coordinates_of(src)
        dx, dy = self.coordinates_of(dst)
        return abs(sx - dx) + abs(sy - dy)

    def diameter(self) -> int:
        """Worst-case hop count in the occupied region."""
        last = self.num_nodes - 1
        lx, ly = self.coordinates_of(last)
        return max(self.width - 1, lx) + ly

    def route(self, src: int, dst: int) -> List[Link]:
        """The XY route as a list of directed links (X fully, then Y)."""
        self._check(src)
        self._check(dst)
        links: List[Link] = []
        x, y = self.coordinates_of(src)
        dx, dy = self.coordinates_of(dst)
        while x != dx:
            step = 1 if dx > x else -1
            nxt = self.node_at(x + step, y)
            links.append((y * self.width + x, nxt))
            x += step
        while y != dy:
            step = 1 if dy > y else -1
            nxt = y * self.width + x + step * self.width
            self._check(nxt)
            links.append((y * self.width + x, nxt))
            y += step
        return links

    def neighbors(self, node: int) -> Iterator[int]:
        """Valid mesh neighbours of a node."""
        x, y = self.coordinates_of(node)
        for nx, ny in ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)):
            if 0 <= nx < self.width and 0 <= ny < self.height:
                candidate = ny * self.width + nx
                if candidate < self.num_nodes:
                    yield candidate

    def _check(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ConfigurationError(
                f"node {node} outside mesh of {self.num_nodes} nodes"
            )
