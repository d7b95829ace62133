"""Unified interconnect-line front end.

:class:`InterconnectLine` wraps any of the material models (SWCNT, MWCNT,
copper, bundle, composite) behind one interface that the circuit-level
benchmark of Figs. 11-12 consumes: total resistance and capacitance, a
length-independent contact term, a distributed-RC ladder expansion and an
Elmore delay estimate.  This is the hand-off point between the compact models
(Section III.C) and circuit simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Protocol, runtime_checkable


@runtime_checkable
class Conductor(Protocol):
    """Anything that exposes the resistance/capacitance interface of a line.

    Satisfied by :class:`~repro.core.swcnt.SWCNTInterconnect`,
    :class:`~repro.core.mwcnt.MWCNTInterconnect`,
    :class:`~repro.core.copper.CopperInterconnect`,
    :class:`~repro.core.bundle.SWCNTBundle` and
    :class:`~repro.core.composite.CuCNTComposite`.

    This is the contract the experiment engine sweeps over: any material
    satisfying it can be compared uniformly (see :func:`conductor_record`),
    wrapped into an :class:`InterconnectLine` and driven by the circuit
    benchmarks.  Optional extras (``effective_conductivity``,
    ``max_current``, contact-resistance terms) are picked up dynamically
    when present.
    """

    length: float

    @property
    def resistance(self) -> float: ...

    @property
    def capacitance(self) -> float: ...


def conductor_record(conductor: Conductor, label: str | None = None) -> dict[str, Any]:
    """Uniform comparison record of any :class:`Conductor`.

    Core columns (always present): ``label``, ``kind`` (the material class
    name), ``length_um``, ``resistance_ohm`` and ``capacitance_f``.  Optional
    material properties are added when the object exposes them:
    ``conductivity_ms_per_m`` (from ``effective_conductivity``) and
    ``max_current_ua`` (from ``max_current``).  This is what lets engines
    sweep heterogeneous materials and still produce one columnar table.
    """
    record: dict[str, Any] = {
        "label": label or type(conductor).__name__,
        "kind": type(conductor).__name__,
        "length_um": conductor.length * 1e6,
        "resistance_ohm": float(conductor.resistance),
        "capacitance_f": float(conductor.capacitance),
    }
    conductivity = getattr(conductor, "effective_conductivity", None)
    if conductivity is not None:
        record["conductivity_ms_per_m"] = float(conductivity) / 1e6
    max_current = getattr(conductor, "max_current", None)
    if max_current is not None:
        record["max_current_ua"] = float(max_current) * 1e6
    return record


@dataclass(frozen=True)
class DistributedRC:
    """A distributed RC description of an interconnect line.

    Attributes
    ----------
    total_resistance:
        Distributed (length-proportional) resistance in ohm.
    total_capacitance:
        Total line capacitance in farad.
    contact_resistance:
        Length-independent lumped resistance in ohm, split equally between the
        two ends when the ladder is built (quantum/imperfect contact terms of
        a CNT, zero for copper).
    n_segments:
        Number of RC segments the ladder is divided into.
    """

    total_resistance: float
    total_capacitance: float
    contact_resistance: float = 0.0
    n_segments: int = 20

    def __post_init__(self) -> None:
        if self.total_resistance < 0 or self.total_capacitance < 0:
            raise ValueError("resistance and capacitance must be non-negative")
        if self.contact_resistance < 0:
            raise ValueError("contact resistance cannot be negative")
        if self.n_segments < 1:
            raise ValueError("need at least one segment")

    @property
    def segment_resistance(self) -> float:
        """Resistance of one ladder segment in ohm."""
        return self.total_resistance / self.n_segments

    @property
    def segment_capacitance(self) -> float:
        """Capacitance of one ladder segment in farad."""
        return self.total_capacitance / self.n_segments

    @property
    def end_resistance(self) -> float:
        """Lumped resistance placed at each end of the ladder in ohm."""
        return self.contact_resistance / 2.0

    def segments(self) -> list[tuple[float, float]]:
        """(resistance, capacitance) of every ladder segment, near end first."""
        return [(self.segment_resistance, self.segment_capacitance)] * self.n_segments

    def elmore_delay(self, driver_resistance: float = 0.0, load_capacitance: float = 0.0) -> float:
        """Elmore delay of driver + distributed line + load in second.

        Uses the closed form for a uniformly distributed line:

            tau = R_drv (C_line + C_load) + R_line (C_line / 2 + C_load)

        with the lumped contact resistance folded into the driver-side and
        load-side terms.
        """
        if driver_resistance < 0 or load_capacitance < 0:
            raise ValueError("driver resistance and load capacitance must be non-negative")
        r_drv = driver_resistance + self.end_resistance
        r_line = self.total_resistance
        r_far = self.end_resistance
        c_line = self.total_capacitance
        c_load = load_capacitance
        return (
            r_drv * (c_line + c_load)
            + r_line * (c_line / 2.0 + c_load)
            + r_far * c_load
        )

    def resized(self, n_segments: int) -> "DistributedRC":
        """Copy with a different segment count (ablation knob)."""
        return DistributedRC(
            total_resistance=self.total_resistance,
            total_capacitance=self.total_capacitance,
            contact_resistance=self.contact_resistance,
            n_segments=n_segments,
        )


@dataclass(frozen=True)
class InterconnectLine:
    """Material-agnostic interconnect line for circuit-level benchmarking.

    Attributes
    ----------
    material:
        Any object satisfying :class:`Conductor`.
    n_segments:
        Number of RC segments used when the line is expanded into a ladder.
    """

    material: Conductor
    n_segments: int = 20

    def __post_init__(self) -> None:
        if self.n_segments < 1:
            raise ValueError("need at least one segment")

    @property
    def length(self) -> float:
        """Line length in metre."""
        return self.material.length

    @property
    def total_resistance(self) -> float:
        """Total end-to-end resistance in ohm (including contact terms)."""
        return self.material.resistance

    @property
    def total_capacitance(self) -> float:
        """Total line capacitance in farad."""
        return self.material.capacitance

    @property
    def contact_resistance(self) -> float:
        """Length-independent lumped resistance in ohm.

        CNT materials expose it as ``lumped_contact_resistance`` (MWCNT) or
        through their quantum contact term (SWCNT); copper-like materials have
        none.
        """
        lumped = getattr(self.material, "lumped_contact_resistance", None)
        if lumped is not None:
            return float(lumped)
        quantum = getattr(self.material, "quantum_contact_resistance", None)
        extra = getattr(self.material, "contact_resistance", 0.0)
        if quantum is not None:
            return float(quantum) + float(extra)
        return float(extra)

    @property
    def distributed_resistance(self) -> float:
        """Length-proportional part of the resistance in ohm."""
        return max(self.total_resistance - self.contact_resistance, 0.0)

    def distributed(self) -> DistributedRC:
        """Expand the line into a :class:`DistributedRC` ladder description."""
        return DistributedRC(
            total_resistance=self.distributed_resistance,
            total_capacitance=self.total_capacitance,
            contact_resistance=self.contact_resistance,
            n_segments=self.n_segments,
        )

    def elmore_delay(self, driver_resistance: float = 0.0, load_capacitance: float = 0.0) -> float:
        """Elmore delay estimate of driver + line + load in second."""
        return self.distributed().elmore_delay(driver_resistance, load_capacitance)

    def time_constant(self) -> float:
        """Intrinsic RC time constant ``R_total C_total`` in second."""
        return self.total_resistance * self.total_capacitance
