"""Deterministic weak-coupling graph partitioner over :class:`Circuit`.

The Waveform Transmission Method converges geometrically with rate
proportional to the coupling strength across the cut, so the partitioner's
one job is to place cuts on the *weakest* couplings the circuit offers:
high-valued bridge resistors, small coupling capacitors, and boundaries
that ideal sources already pin (a current source imposes no voltage
coupling at all; a node held by a grounded voltage source costs nothing
to share). Device couplings — the node cliques of a MOSFET, BJT, diode or
controlled source — must never be cut: the exchanged boundary waveform
cannot represent a bidirectional nonlinear constraint.

The algorithm is single-linkage agglomeration over a maximum spanning
structure: every component contributes weighted edges to a node graph,
edges are merged strongest-first (ties broken by sorted node names, so
the result is a pure function of the circuit — no RNG, no seed), and
merging stops when exactly ``partitions`` clusters remain. The cut set is
then whatever edges straddle two clusters; if any of them is a device
coupling the partitioner refuses loudly rather than emit a partition the
coordinator cannot converge.

The result is a :class:`PartitionManifest` — a JSON-stable description of
per-partition node sets, internal components, cut components and the
boundary-node interface — which is both the coordinator's work order and
the determinism contract the property tests pin down byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.circuit.circuit import Circuit, canonical_node
from repro.circuit.components import (
    Capacitor,
    CurrentSource,
    Inductor,
    MutualInductance,
    Resistor,
    VoltageSource,
)
from repro.errors import SimulationError

#: Edge weight assigned to couplings that must never be cut (device node
#: cliques, controlled sources, voltage-source branches). Any finite
#: physical conductance is far below this.
DEVICE_WEIGHT = 1e12

#: Weight of an ideal current-source branch: the injected current is
#: independent of the node voltages, so cutting there is exact.
SOURCE_WEIGHT = 0.0

#: Reference timescale used to express a capacitance as a conductance
#: (``C / CAP_TIMESCALE``) so resistive and capacitive couplings rank on
#: one axis. One nanosecond sits in the middle of the RC products the
#: benchmark circuits use; the *relative* ordering of weak bridges is
#: insensitive to the exact choice.
CAP_TIMESCALE = 1e-9


@dataclass(frozen=True)
class CutEdge:
    """One coupling the partition boundary severs."""

    a: str
    b: str
    weight: float
    components: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "weight": self.weight,
            "components": list(self.components),
        }


@dataclass(frozen=True)
class PartitionSpec:
    """One partition: its nodes and fully-internal components."""

    index: int
    nodes: tuple[str, ...]
    components: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "nodes": list(self.nodes),
            "components": list(self.components),
        }


@dataclass(frozen=True)
class BoundarySpec:
    """One boundary node: who owns its waveform, who consumes it."""

    node: str
    owner: int
    consumers: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "node": self.node,
            "owner": self.owner,
            "consumers": list(self.consumers),
        }


@dataclass(frozen=True)
class PartitionManifest:
    """Deterministic description of one circuit decomposition.

    Attributes:
        title: the partitioned circuit's title.
        partitions: per-partition node/component specs, ordered by the
            first appearance of their nodes in the circuit.
        boundary: boundary-node interface records, sorted by node name.
        cuts: the severed couplings, sorted by (a, b).
        requested: the partition count the caller asked for.
    """

    title: str
    partitions: tuple[PartitionSpec, ...]
    boundary: tuple[BoundarySpec, ...]
    cuts: tuple[CutEdge, ...] = field(default_factory=tuple)
    requested: int = 0

    def __len__(self) -> int:
        return len(self.partitions)

    def owner_of(self, node: str) -> int:
        """Partition index owning *node* (KeyError for unknown nodes)."""
        return self._owners()[node]

    def _owners(self) -> dict[str, int]:
        owners: dict[str, int] = {}
        for spec in self.partitions:
            for node in spec.nodes:
                owners[node] = spec.index
        return owners

    def boundary_nodes(self) -> tuple[str, ...]:
        return tuple(spec.node for spec in self.boundary)

    def foreign_nodes(self, index: int) -> tuple[str, ...]:
        """Boundary nodes partition *index* consumes from its neighbours."""
        return tuple(
            spec.node for spec in self.boundary if index in spec.consumers
        )

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "requested": self.requested,
            "partitions": [spec.to_dict() for spec in self.partitions],
            "boundary": [spec.to_dict() for spec in self.boundary],
            "cuts": [edge.to_dict() for edge in self.cuts],
        }

    def to_json(self) -> str:
        """Canonical byte-stable JSON rendering (the determinism contract)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def coupling_weight(comp) -> float:
    """Cut-resistance of one component's node coupling.

    Higher means "cut me last": conductance for resistors, capacitance
    over :data:`CAP_TIMESCALE` for capacitors, :data:`DEVICE_WEIGHT` for
    anything whose constitutive relation a sampled boundary waveform
    cannot carry, and :data:`SOURCE_WEIGHT` for ideal current sources.
    """
    if isinstance(comp, Resistor):
        return 1.0 / max(comp.resistance, 1e-12)
    if isinstance(comp, Capacitor):
        return comp.capacitance / CAP_TIMESCALE
    if isinstance(comp, CurrentSource):
        return SOURCE_WEIGHT
    if isinstance(comp, (Inductor, VoltageSource, MutualInductance)):
        # A branch current couples both KCL rows: severing it would drop
        # an MNA unknown, not just relax a waveform.
        return DEVICE_WEIGHT
    return DEVICE_WEIGHT


def coupling_edges(circuit: Circuit) -> dict[tuple[str, str], dict]:
    """Weighted node-pair couplings (ground excluded, parallel edges summed).

    Returns ``{(a, b): {"weight": w, "components": [names...]}}`` with
    ``a < b`` lexicographically and component lists in circuit order.
    """
    edges: dict[tuple[str, str], dict] = {}
    for comp in circuit.components:
        nodes = []
        for node in comp.nodes:
            node = canonical_node(node)
            if node != "0" and node not in nodes:
                nodes.append(node)
        if len(nodes) < 2:
            continue
        weight = coupling_weight(comp)
        for i in range(len(nodes)):
            for j in range(i + 1, len(nodes)):
                key = tuple(sorted((nodes[i], nodes[j])))
                entry = edges.setdefault(key, {"weight": 0.0, "components": []})
                entry["weight"] += weight
                entry["components"].append(comp.name)
    return edges


def partition_circuit(
    circuit: Circuit,
    partitions: int,
    allow_strong_cuts: bool = False,
) -> PartitionManifest:
    """Decompose *circuit* into *partitions* weakly-coupled blocks.

    Deterministic: the same circuit always yields the byte-identical
    manifest. Raises :class:`SimulationError` when the circuit has fewer
    nodes than partitions, when its connectivity cannot support the
    requested count, or when the only available cuts sever device
    couplings (unless *allow_strong_cuts*).
    """
    if partitions < 1:
        raise SimulationError("partition count must be >= 1")
    order = [canonical_node(n) for n in circuit.nodes()]
    if len(order) < partitions:
        raise SimulationError(
            f"cannot split {len(order)} node(s) into {partitions} partition(s)"
        )
    rank = {node: i for i, node in enumerate(order)}
    edges = coupling_edges(circuit)

    # Single-linkage agglomeration, strongest couplings first. Ties break
    # on the sorted node-name pair, so the merge order — and therefore the
    # manifest — is a pure function of the circuit.
    parent = {node: node for node in order}

    def find(node: str) -> str:
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    clusters = len(order)
    ranked = sorted(edges.items(), key=lambda item: (-item[1]["weight"], item[0]))
    for (a, b), _ in ranked:
        if clusters <= partitions:
            break
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        # deterministic union: earliest-appearing node anchors the root
        if rank[ra] > rank[rb]:
            ra, rb = rb, ra
        parent[rb] = ra
        clusters -= 1
    if clusters > partitions:
        raise SimulationError(
            f"circuit connectivity supports at most {clusters} partition(s); "
            f"{partitions} requested"
        )

    # Partition indices follow the first appearance of each cluster root.
    roots: list[str] = []
    for node in order:
        root = find(node)
        if root not in roots:
            roots.append(root)
    index_of = {root: i for i, root in enumerate(roots)}
    members: dict[int, list[str]] = {i: [] for i in range(len(roots))}
    for node in order:
        members[index_of[find(node)]].append(node)
    owner = {
        node: idx for idx, nodes in members.items() for node in nodes
    }

    # Cut set: every edge straddling two clusters.
    cuts = []
    for (a, b), entry in sorted(edges.items()):
        if owner[a] != owner[b]:
            cuts.append(
                CutEdge(
                    a=a,
                    b=b,
                    weight=entry["weight"],
                    components=tuple(entry["components"]),
                )
            )
    if not allow_strong_cuts:
        for edge in cuts:
            if edge.weight >= DEVICE_WEIGHT:
                raise SimulationError(
                    f"partitioning would cut the device/branch coupling "
                    f"{edge.a}--{edge.b} (components {list(edge.components)}); "
                    f"request fewer partitions or pass allow_strong_cuts=True"
                )

    # Boundary interface: a node is boundary when a component from another
    # partition touches it; the touching partitions are its consumers.
    consumers: dict[str, set[int]] = {}
    internal: dict[int, list[str]] = {i: [] for i in range(len(roots))}
    cut_components: set[str] = set()
    for comp in circuit.components:
        nodes = sorted(
            {canonical_node(n) for n in comp.nodes} - {"0"},
            key=lambda n: rank[n],
        )
        if not nodes:
            continue
        touched = sorted({owner[n] for n in nodes})
        if len(touched) == 1:
            internal[touched[0]].append(comp.name)
            continue
        cut_components.add(comp.name)
        for node in nodes:
            for idx in touched:
                if idx != owner[node]:
                    consumers.setdefault(node, set()).add(idx)

    specs = tuple(
        PartitionSpec(
            index=i,
            nodes=tuple(members[i]),
            components=tuple(internal[i]),
        )
        for i in range(len(roots))
    )
    boundary = tuple(
        BoundarySpec(
            node=node,
            owner=owner[node],
            consumers=tuple(sorted(consumers[node])),
        )
        for node in sorted(consumers)
    )
    return PartitionManifest(
        title=circuit.title,
        partitions=specs,
        boundary=boundary,
        cuts=tuple(cuts),
        requested=partitions,
    )


def manifest_from_node_sets(
    circuit: Circuit, node_sets: list[set[str]]
) -> PartitionManifest:
    """Build a manifest from an explicit node partition.

    Bypasses the weak-coupling heuristic — used by tests and by callers
    holding a known-good decomposition, such as the hand-picked cuts the
    waveform-relaxation baseline of Fig R4b runs on. The node sets must
    cover the circuit's non-ground nodes exactly once.
    """
    order = [canonical_node(n) for n in circuit.nodes()]
    rank = {node: i for i, node in enumerate(order)}
    owner: dict[str, int] = {}
    for idx, nodes in enumerate(node_sets):
        for node in nodes:
            node = canonical_node(node)
            if node in owner:
                raise SimulationError(f"node {node!r} assigned to two partitions")
            owner[node] = idx
    missing = set(order) - set(owner)
    if missing:
        raise SimulationError(f"partition misses node(s): {sorted(missing)}")

    edges = coupling_edges(circuit)
    cuts = tuple(
        CutEdge(a=a, b=b, weight=entry["weight"],
                components=tuple(entry["components"]))
        for (a, b), entry in sorted(edges.items())
        if owner[a] != owner[b]
    )
    consumers: dict[str, set[int]] = {}
    internal: dict[int, list[str]] = {i: [] for i in range(len(node_sets))}
    for comp in circuit.components:
        nodes = sorted(
            {canonical_node(n) for n in comp.nodes} - {"0"},
            key=lambda n: rank[n],
        )
        if not nodes:
            continue
        touched = sorted({owner[n] for n in nodes})
        if len(touched) == 1:
            internal[touched[0]].append(comp.name)
            continue
        for node in nodes:
            for idx in touched:
                if idx != owner[node]:
                    consumers.setdefault(node, set()).add(idx)
    specs = tuple(
        PartitionSpec(
            index=i,
            nodes=tuple(n for n in order if owner[n] == i),
            components=tuple(internal[i]),
        )
        for i in range(len(node_sets))
    )
    boundary = tuple(
        BoundarySpec(node=node, owner=owner[node],
                     consumers=tuple(sorted(consumers[node])))
        for node in sorted(consumers)
    )
    return PartitionManifest(
        title=circuit.title,
        partitions=specs,
        boundary=boundary,
        cuts=cuts,
        requested=len(node_sets),
    )
