"""Declarative sweep specifications and the network-family registry.

A :class:`SweepSpec` names what to build -- networks (``family:args``
strings), layer budgets, and a layout scheme -- and :meth:`expand`\\ s
into an ordered list of independent :class:`SweepJob`\\ s, the unit the
runner fans out across worker processes and the cache addresses.

The ``FAMILIES`` registry (moved here from the CLI so both the CLI and
pickled sweep jobs resolve specs through one table) maps family names
to constructors; :func:`parse_network` turns ``"hypercube:8"`` into a
:class:`~repro.topology.base.Network`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.core.schemes import (
    layout_cayley,
    layout_generic_grid,
    layout_network,
)
from repro.grid.layout import GridLayout
from repro.topology import (
    HSN,
    Butterfly,
    CompleteGraph,
    CubeConnectedCycles,
    DeBruijn,
    EnhancedCube,
    FoldedHypercube,
    GeneralizedHypercube,
    Hypercube,
    IndirectSwapNetwork,
    KAryNCube,
    KAryNCubeCluster,
    Mesh,
    ReducedHypercube,
    Ring,
    ShuffleExchange,
    StarConnectedCycles,
    StarGraph,
    WrappedButterfly,
)
from repro.topology.base import Network

__all__ = [
    "FAMILIES",
    "SCHEMES",
    "SweepJob",
    "SweepSpec",
    "TrafficSpec",
    "dispatch_scheme",
    "parse_network",
    "standard_family_sweep",
]

FAMILIES = {
    "ring": lambda k: Ring(k),
    "mesh": lambda k, n: Mesh(k, n),
    "kary": lambda k, n: KAryNCube(k, n),
    "hypercube": lambda n: Hypercube(n),
    "folded-hypercube": lambda n: FoldedHypercube(n),
    "enhanced-cube": lambda n: EnhancedCube(n),
    "complete": lambda n: CompleteGraph(n),
    "ghc": lambda *rs: GeneralizedHypercube(rs),
    "butterfly": lambda m: Butterfly(m),
    "isn": lambda m: IndirectSwapNetwork(m),
    "ccc": lambda n: CubeConnectedCycles(n),
    "reduced-hypercube": lambda n: ReducedHypercube(n),
    "hsn": lambda r, l: HSN(CompleteGraph(r), l),
    "hhn": lambda d, l: HSN(Hypercube(d), l),
    "kary-cluster": lambda k, n, c: KAryNCubeCluster(k, n, c),
    "star": lambda n: StarGraph(n),
    "wrapped-butterfly": lambda m: WrappedButterfly(m),
    "shuffle-exchange": lambda n: ShuffleExchange(n),
    "de-bruijn": lambda n: DeBruijn(n),
    "scc": lambda n: StarConnectedCycles(n),
}


def parse_network(spec: str) -> Network:
    """Parse ``family:arg,arg`` into a Network instance."""
    family, _, argstr = spec.partition(":")
    family = family.strip().lower()
    if family not in FAMILIES:
        raise SystemExit(
            f"unknown network family {family!r}; known: "
            f"{', '.join(sorted(FAMILIES))}"
        )
    try:
        args = [int(a) for a in argstr.split(",") if a.strip() != ""]
        return FAMILIES[family](*args)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"bad arguments for {family!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Scheme dispatch

#: Scheme names a job may request.  ``auto`` is the paper's per-family
#: dispatch, :func:`~repro.core.schemes.layout_network`; ``generic`` and
#: ``generic-opt`` force the universal near-square grid (the fuzzer's
#: adversarial target), without / with order optimization; ``cayley``
#: forces the Cayley cluster scheme.
SCHEMES = ("auto", "generic", "generic-opt", "cayley")


def dispatch_scheme(
    net: Network, *, layers: int, scheme: str = "auto"
) -> GridLayout:
    """Build ``net``'s layout under the named scheme."""
    if scheme == "auto":
        return layout_network(net, layers=layers)
    if scheme == "generic":
        return layout_generic_grid(net, layers=layers)
    if scheme == "generic-opt":
        return layout_generic_grid(net, layers=layers, optimize=True)
    if scheme == "cayley":
        return layout_cayley(net, layers=layers)
    raise ValueError(f"unknown scheme {scheme!r}; known: {SCHEMES}")


# ---------------------------------------------------------------------------
# Jobs and specs


@dataclass(frozen=True)
class SweepJob:
    """One independent unit of sweep work (and one cache address)."""

    index: int
    network: str  # family:args spec string
    layers: int
    scheme: str = "auto"

    @property
    def job_id(self) -> str:
        return f"{self.network}@L{self.layers}/{self.scheme}"

    def build_network(self) -> Network:
        return parse_network(self.network)


@dataclass
class SweepSpec:
    """A declarative sweep: networks x layer budgets under one scheme."""

    networks: list[str] = field(default_factory=list)
    layers: list[int] = field(default_factory=lambda: [2, 4])
    scheme: str = "auto"
    name: str = "sweep"

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(
                f"unknown scheme {self.scheme!r}; known: {SCHEMES}"
            )

    def expand(self) -> list[SweepJob]:
        """The job list, in deterministic network-major order."""
        jobs = []
        for net in self.networks:
            for L in self.layers:
                jobs.append(
                    SweepJob(
                        index=len(jobs),
                        network=net,
                        layers=L,
                        scheme=self.scheme,
                    )
                )
        return jobs

    # -- (de)serialization, for --spec-file and run reports -------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "networks": list(self.networks),
            "layers": list(self.layers),
            "scheme": self.scheme,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SweepSpec":
        unknown = set(doc) - {"name", "networks", "layers", "scheme"}
        if unknown:
            raise ValueError(f"unknown sweep spec keys: {sorted(unknown)}")
        return cls(
            networks=[str(n) for n in doc.get("networks", [])],
            layers=[int(x) for x in doc.get("layers", [2, 4])],
            scheme=str(doc.get("scheme", "auto")),
            name=str(doc.get("name", "sweep")),
        )

    @classmethod
    def from_file(cls, path) -> "SweepSpec":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class TrafficSpec:
    """A declarative traffic experiment: one workload on one network.

    The batch-side mirror of :func:`repro.routing.make_workload` plus
    the simulation knobs -- everything needed to reproduce a simulation
    or a saturation sweep from a JSON document.  ``rates`` non-empty
    means a sweep (``rate`` is then ignored); ``params`` passes
    through to the workload generator (``hot_fraction``, ``p_on``,
    ...).
    """

    network: str
    workload: str = "uniform"
    rate: float = 0.1
    rates: list[float] = field(default_factory=list)
    duration: int = 64
    seed: int = 0
    layers: int = 2
    mode: str = "store_forward"
    message_length: int = 1
    params: dict = field(default_factory=dict)

    _KEYS = (
        "network", "workload", "rate", "rates", "duration", "seed",
        "layers", "mode", "message_length", "params",
    )

    def __post_init__(self) -> None:
        from repro.routing.traffic import WORKLOAD_KINDS

        if self.workload not in WORKLOAD_KINDS:
            raise ValueError(
                f"unknown workload {self.workload!r}; "
                f"known: {', '.join(WORKLOAD_KINDS)}"
            )
        if self.mode not in ("store_forward", "cut_through"):
            raise ValueError(f"unknown mode {self.mode!r}")

    def build_network(self) -> Network:
        return parse_network(self.network)

    def run(self):
        """Execute the spec on its network's L-layer layout.

        Returns a :class:`~repro.routing.SimulationResult` for a
        single run, or ``{"rows", "knee"}`` when ``rates`` makes it a
        saturation sweep.
        """
        from repro.routing import (
            knee_point,
            make_workload,
            saturation_sweep,
            simulate_fast,
        )

        net = self.build_network()
        lay = layout_network(net, layers=self.layers)
        if self.rates:
            rows = saturation_sweep(
                net, rates=self.rates, duration=self.duration,
                workload=self.workload, seed=self.seed,
                layout=lay, mode=self.mode,
                message_length=self.message_length,
                workload_params=self.params or None,
            )
            return {"rows": rows, "knee": knee_point(rows)}
        msgs = make_workload(
            self.workload, net, seed=self.seed, rate=self.rate,
            duration=self.duration, **self.params,
        )
        return simulate_fast(
            net, msgs, layout=lay, mode=self.mode,
            message_length=self.message_length,
        )

    def to_dict(self) -> dict:
        return {
            "network": self.network,
            "workload": self.workload,
            "rate": self.rate,
            "rates": list(self.rates),
            "duration": self.duration,
            "seed": self.seed,
            "layers": self.layers,
            "mode": self.mode,
            "message_length": self.message_length,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "TrafficSpec":
        unknown = set(doc) - set(cls._KEYS)
        if unknown:
            raise ValueError(
                f"unknown traffic spec keys: {sorted(unknown)}"
            )
        if "network" not in doc:
            raise ValueError("traffic spec needs a network")
        return cls(
            network=str(doc["network"]),
            workload=str(doc.get("workload", "uniform")),
            rate=float(doc.get("rate", 0.1)),
            rates=[float(r) for r in doc.get("rates", [])],
            duration=int(doc.get("duration", 64)),
            seed=int(doc.get("seed", 0)),
            layers=int(doc.get("layers", 2)),
            mode=str(doc.get("mode", "store_forward")),
            message_length=int(doc.get("message_length", 1)),
            params=dict(doc.get("params", {})),
        )

    @classmethod
    def from_file(cls, path) -> "TrafficSpec":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def standard_family_sweep(layers: tuple[int, ...] = (2, 4)) -> SweepSpec:
    """The default benchmark sweep: one representative per scheme
    family at sizes the whole pipeline (build + validate + measure)
    handles in well under a second each."""
    return SweepSpec(
        name="standard-families",
        networks=[
            "ring:16",
            "kary:4,2",
            "hypercube:5",
            "folded-hypercube:4",
            "complete:10",
            "ghc:4,4",
            "butterfly:3",
            "ccc:4",
            "star:4",
            "shuffle-exchange:5",
        ],
        layers=list(layers),
    )
