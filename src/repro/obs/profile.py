"""Per-supernode flop/byte profiling: where the factorization time goes.

The paper family's central evidence is GFLOPS attribution — which fronts
dominate, and how close the achieved rate is to what the machine model
says the kernel *should* run at. :class:`FrontProfile` collects, per
supernode:

* **host samples** — front order, panel width, flop count, bytes touched,
  and measured wall seconds of the dense partial factorization and of the
  assembly plus extend-add before it
  (:mod:`repro.mf.numeric` feeds these when a recorder is installed);
* **simulated flops** — the per-supernode flops charged by the distributed
  rank program (:mod:`repro.parallel.factor_par`), summed over ranks.

From these it derives the top-K "hottest fronts" table and the
measured-vs-modeled GFLOPS comparison against a
:class:`~repro.machine.model.MachineModel` — the instrument behind the
roll-off curves in the paper's figures.

Kernel code must not call ``time.perf_counter`` directly (lint rule
RP007); the profiler exposes :attr:`FrontProfile.clock` so timestamps are
taken through the observability layer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine.model import MachineModel

__all__ = [
    "FrontRecord",
    "FrontProfile",
    "active_profile",
    "render_top_fronts",
    "gflops_comparison",
    "render_gflops_comparison",
]


@dataclass(frozen=True)
class FrontRecord:
    """One profiled dense partial factorization (host execution)."""

    supernode: int
    #: front order (rows)
    m: int
    #: pivot columns eliminated
    width: int
    flops: int
    #: working-set bytes of the front (m² entries of its working dtype)
    nbytes: int
    #: measured host wall time of the partial factorization [s]
    seconds: float
    #: measured host wall time of assembly plus extend-add [s]
    assembly_seconds: float = 0.0

    @property
    def gflops(self) -> float:
        if self.seconds <= 0:
            return 0.0
        return self.flops / self.seconds / 1e9


class FrontProfile:
    """Accumulates per-supernode host samples and simulated flop charges."""

    #: timestamp source for instrumented kernels (RP007 funnels them here)
    clock = staticmethod(time.perf_counter)

    def __init__(self) -> None:
        self.host: list[FrontRecord] = []
        #: supernode -> flops charged by the simulated rank program
        self.sim_flops: dict[int, float] = {}

    def observe_front(
        self,
        supernode: int,
        m: int,
        width: int,
        flops: int,
        seconds: float,
        itemsize: int = 8,
        assembly_seconds: float = 0.0,
    ) -> None:
        """Record one host front; *itemsize* is the bytes per entry of the
        front's working dtype (4 for fp32 fronts)."""
        self.host.append(
            FrontRecord(
                supernode=supernode,
                m=m,
                width=width,
                flops=flops,
                nbytes=itemsize * m * m,
                seconds=seconds,
                assembly_seconds=assembly_seconds,
            )
        )

    def add_sim_flops(self, supernode: int, flops: float) -> None:
        self.sim_flops[supernode] = self.sim_flops.get(supernode, 0.0) + flops

    # -- rollups -------------------------------------------------------------

    @property
    def total_flops(self) -> int:
        return sum(r.flops for r in self.host)

    @property
    def total_seconds(self) -> float:
        return sum(r.seconds for r in self.host)

    @property
    def total_assembly_seconds(self) -> float:
        return sum(r.assembly_seconds for r in self.host)

    @property
    def total_bytes(self) -> int:
        return sum(r.nbytes for r in self.host)

    def measured_gflops(self) -> float:
        t = self.total_seconds
        return self.total_flops / t / 1e9 if t > 0 else 0.0

    def top_fronts(self, k: int = 10) -> list[FrontRecord]:
        """The k hottest fronts by measured host seconds (flops tiebreak)."""
        return sorted(
            self.host, key=lambda r: (r.seconds, r.flops), reverse=True
        )[: max(k, 0)]


def active_profile() -> FrontProfile | None:
    """The installed recorder's profile, or None when obs is off.

    Kernels guard their accounting with one None check, keeping the
    disabled path free of timing calls.
    """
    from repro.obs.spans import current_recorder

    rec = current_recorder()
    return rec.profile if rec is not None else None


# -- reporting ---------------------------------------------------------------


def render_top_fronts(profile: FrontProfile, k: int = 10) -> str:
    """Top-K hottest fronts as a plain-text table."""
    from repro.util.tables import format_table

    rows = []
    total_s = profile.total_seconds
    for r in profile.top_fronts(k):
        rows.append(
            [
                r.supernode,
                r.m,
                r.width,
                round(r.flops / 1e6, 3),
                round(r.seconds * 1e3, 4),
                round(r.seconds / total_s * 100, 1) if total_s > 0 else 0.0,
                round(r.gflops, 3),
            ]
        )
    return format_table(
        ["supernode", "front", "width", "Mflop", "host ms", "% time", "GF/s"],
        rows,
        title=f"top-{min(k, len(profile.host))} hottest fronts "
        f"({len(profile.host)} profiled)",
    )


def gflops_comparison(
    profile: FrontProfile, machine: MachineModel, threads: int = 1, k: int = 10
) -> list[dict]:
    """Measured vs modeled rate per hot front, plus an ``overall`` row.

    Modeled seconds come from the machine model's efficiency curve at the
    front's order — the same charge the simulator applies — so the ratio
    column reads "how much faster/slower the host kernel ran than the
    simulated machine would have".
    """
    rows: list[dict] = []
    modeled_total = 0.0
    for r in profile.host:
        modeled_total += machine.compute_time(r.flops, r.m, threads=threads)
    for r in profile.top_fronts(k):
        modeled_s = machine.compute_time(r.flops, r.m, threads=threads)
        modeled_gf = r.flops / modeled_s / 1e9 if modeled_s > 0 else 0.0
        rows.append(
            {
                "supernode": r.supernode,
                "front": r.m,
                "measured_gflops": r.gflops,
                "modeled_gflops": modeled_gf,
                "ratio": r.gflops / modeled_gf if modeled_gf > 0 else 0.0,
            }
        )
    total_flops = profile.total_flops
    modeled_overall = (
        total_flops / modeled_total / 1e9 if modeled_total > 0 else 0.0
    )
    measured_overall = profile.measured_gflops()
    rows.append(
        {
            "supernode": -1,
            "front": -1,
            "measured_gflops": measured_overall,
            "modeled_gflops": modeled_overall,
            "ratio": (
                measured_overall / modeled_overall if modeled_overall > 0 else 0.0
            ),
        }
    )
    return rows


def render_gflops_comparison(
    profile: FrontProfile, machine: MachineModel, threads: int = 1, k: int = 10
) -> str:
    from repro.util.tables import format_table

    rows = []
    for row in gflops_comparison(profile, machine, threads=threads, k=k):
        label = "overall" if row["supernode"] < 0 else row["supernode"]
        front = "-" if row["front"] < 0 else row["front"]
        rows.append(
            [
                label,
                front,
                round(row["measured_gflops"], 3),
                round(row["modeled_gflops"], 3),
                round(row["ratio"], 3),
            ]
        )
    return format_table(
        ["supernode", "front", "measured GF/s", "modeled GF/s", "ratio"],
        rows,
        title=f"measured vs modeled GFLOPS ({machine.name}, {threads} thread(s))",
    )
