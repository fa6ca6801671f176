"""Two-phase switched-capacitor network analysis.

This module computes, from a circuit description (capacitors, switches, the
phase each switch conducts in), the quantities that the Seeman-Sanders
framework [13] needs to predict converter performance:

* the ideal conversion ratio ``M = V_out / V_in``,
* the capacitor charge-multiplier vector ``a_c`` (charge through each
  flying capacitor per unit output charge),
* the switch charge-multiplier vector ``a_r``,
* steady-state capacitor voltages and switch blocking voltages (for
  device-rating metrics).

From these, the slow-switching-limit (SSL) and fast-switching-limit (FSL)
output impedances follow in closed form:

.. math::

    R_{SSL} = \\frac{(\\sum_i |a_{c,i}|)^2}{C_{tot} f_{sw}}, \\qquad
    R_{FSL} = \\frac{2 (\\sum_i |a_{r,i}|)^2}{G_{tot}}

(both with the optimal allocation of total capacitance/conductance across
devices in proportion to their charge multipliers, as derived in [13]).

The analysis is exact linear algebra, not table lookup: each phase's
switch-connected node groups are merged (union-find), KCL is written per
merged node for the periodic steady state (each capacitor's net charge over
a cycle is zero), and the resulting linear system is solved with least
squares.  A non-zero residual means the described network is electrically
inconsistent and raises :class:`ElectricalError`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError, ElectricalError

GND = "gnd"
VIN = "vin"
VOUT = "vout"

PHASE_1 = 1
PHASE_2 = 2

_RESIDUAL_TOL = 1e-9

ANALYSIS_CACHE: Dict[Tuple, "SCAnalysis"] = {}
"""Process-wide memo of solved networks, keyed by circuit signature.

The SSL/FSL analysis is pure linear algebra over the branch lists, so
identical circuits (however named) share one solution.  Topology sweeps
and bisections re-analyse the same few networks constantly.  Holds at
most :data:`_ANALYSIS_CACHE_SIZE` networks; errors are never cached.
"""
_ANALYSIS_CACHE_SIZE = 512


@dataclasses.dataclass(frozen=True)
class CapacitorBranch:
    """A flying (or output) capacitor between two circuit nodes."""

    name: str
    plus: str
    minus: str


@dataclasses.dataclass(frozen=True)
class SwitchBranch:
    """A switch conducting during ``phase`` (1 or 2) between two nodes."""

    name: str
    a: str
    b: str
    phase: int


@dataclasses.dataclass(frozen=True)
class SCAnalysis:
    """Results of analysing a two-phase SC network (per unit V_in, q_out)."""

    ratio: float
    """Ideal no-load conversion ratio V_out / V_in."""

    cap_charge_multipliers: Dict[str, float]
    """a_c: charge through each capacitor per unit output charge."""

    switch_charge_multipliers: Dict[str, float]
    """a_r: charge through each switch per unit output charge."""

    cap_voltages: Dict[str, float]
    """Steady-state capacitor voltages, normalised to V_in = 1."""

    switch_blocking_voltages: Dict[str, float]
    """Off-state voltage across each switch, normalised to V_in = 1."""

    input_charge: float = 0.0
    """Charge drawn from V_in per unit output charge.

    For an ideal (lossless) SC converter this equals the conversion ratio:
    power balance gives ``V_in * q_in = V_out * q_out``.
    """

    @property
    def cap_multiplier_sum(self) -> float:
        """Sum of |a_c|; squared, it is the SSL impedance numerator."""
        return sum(abs(v) for v in self.cap_charge_multipliers.values())

    @property
    def switch_multiplier_sum(self) -> float:
        """Sum of |a_r|; squared (x2), it is the FSL impedance numerator."""
        return sum(abs(v) for v in self.switch_charge_multipliers.values())

    def r_ssl(self, c_total: float, f_sw: float) -> float:
        """SSL output impedance with optimally-allocated total capacitance."""
        if c_total <= 0.0 or f_sw <= 0.0:
            raise ConfigurationError("c_total and f_sw must be positive")
        return self.cap_multiplier_sum**2 / (c_total * f_sw)

    def r_fsl(self, g_total: float) -> float:
        """FSL output impedance with optimally-allocated switch conductance."""
        if g_total <= 0.0:
            raise ConfigurationError("g_total must be positive")
        return 2.0 * self.switch_multiplier_sum**2 / g_total

    def cap_energy_metric(self) -> float:
        """Sum of |a_c,i| * v_c,i — the capacitor VA-rating cost metric of [13].

        Lower is better: for a fixed total capacitor energy rating, a
        topology with a smaller metric achieves lower SSL impedance.
        """
        return sum(
            abs(mult) * abs(self.cap_voltages[name])
            for name, mult in self.cap_charge_multipliers.items()
        )

    def switch_va_metric(self) -> float:
        """Sum of |a_r,i| * v_block,i — the switch VA-rating cost metric."""
        return sum(
            abs(mult) * abs(self.switch_blocking_voltages[name])
            for name, mult in self.switch_charge_multipliers.items()
        )


class _UnionFind:
    """Minimal union-find over node labels."""

    def __init__(self, items: Sequence[str]) -> None:
        self._parent = {item: item for item in items}

    def find(self, item: str) -> str:
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb


class SCNetwork:
    """A two-phase switched-capacitor converter described as a circuit.

    Reserved node names: ``gnd``, ``vin``, ``vout``.  Build the circuit
    with :meth:`add_capacitor` and :meth:`add_switch`, then call
    :meth:`analyze`.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.capacitors: List[CapacitorBranch] = []
        self.switches: List[SwitchBranch] = []
        self._names: set = set()

    # -- construction --------------------------------------------------------

    def add_capacitor(self, name: str, plus: str, minus: str) -> None:
        """Add a capacitor between nodes ``plus`` and ``minus``."""
        self._check_branch(name, plus, minus)
        self.capacitors.append(CapacitorBranch(name, plus, minus))

    def add_switch(self, name: str, a: str, b: str, phase: int) -> None:
        """Add a switch conducting in ``phase`` (1 or 2) between two nodes."""
        if phase not in (PHASE_1, PHASE_2):
            raise ConfigurationError(
                f"{self.name}.{name}: phase must be 1 or 2, got {phase}"
            )
        self._check_branch(name, a, b)
        self.switches.append(SwitchBranch(name, a, b, phase))

    def _check_branch(self, name: str, a: str, b: str) -> None:
        if name in self._names:
            raise ConfigurationError(f"{self.name}: duplicate branch name {name!r}")
        if a == b:
            raise ConfigurationError(f"{self.name}.{name}: both terminals on {a!r}")
        self._names.add(name)

    def nodes(self) -> List[str]:
        """All node labels, reserved rails first, deterministic order."""
        found = {GND, VIN, VOUT}
        ordered = [GND, VIN, VOUT]
        for branch in list(self.capacitors) + list(self.switches):
            for node in (
                (branch.plus, branch.minus)
                if isinstance(branch, CapacitorBranch)
                else (branch.a, branch.b)
            ):
                if node not in found:
                    found.add(node)
                    ordered.append(node)
        return ordered

    def signature(self) -> Tuple:
        """Hashable electrical identity of the circuit (name excluded).

        Two networks with the same branch lists analyse identically, so
        the signature is the memoization key for :meth:`analyze_cached`.
        """
        return (
            tuple(self.capacitors),
            tuple(self.switches),
        )

    # -- analysis -------------------------------------------------------------

    def analyze_cached(self) -> SCAnalysis:
        """Like :meth:`analyze`, cached on the circuit signature.

        Safe because :class:`SCAnalysis` is frozen and the signature
        captures every input of the solve.  Use the plain :meth:`analyze`
        when mutating a network between solves within one construction
        scope (nothing in this package does).
        """
        key = self.signature()
        analysis = ANALYSIS_CACHE.get(key)
        if analysis is None:
            analysis = self.analyze()
            if len(ANALYSIS_CACHE) < _ANALYSIS_CACHE_SIZE:
                ANALYSIS_CACHE[key] = analysis
        return analysis

    def analyze(self) -> SCAnalysis:
        """Solve the periodic steady state of the network.

        Raises :class:`ElectricalError` if the network is inconsistent
        (e.g. a phase shorts V_in to ground through closed switches) or
        underdetermined (floating subcircuits).
        """
        if not self.capacitors:
            raise ConfigurationError(f"{self.name}: no capacitors in network")
        groups = {phase: self._merge(phase) for phase in (PHASE_1, PHASE_2)}
        ratio, cap_voltages, node_voltages = self._solve_voltages(groups)
        cap_mult, source_charges = self._solve_charges(groups)
        switch_mult = self._solve_switch_charges(groups, cap_mult, source_charges)
        blocking = self._blocking_voltages(node_voltages)
        return SCAnalysis(
            ratio=ratio,
            cap_charge_multipliers=cap_mult,
            switch_charge_multipliers=switch_mult,
            cap_voltages=cap_voltages,
            switch_blocking_voltages=blocking,
            input_charge=source_charges[(VIN, PHASE_1)]
            + source_charges[(VIN, PHASE_2)],
        )

    # -- phase connectivity ----------------------------------------------------

    def _merge(self, phase: int) -> Dict[str, str]:
        """Map node -> supernode representative under phase's closed switches."""
        uf = _UnionFind(self.nodes())
        for sw in self.switches:
            if sw.phase == phase:
                uf.union(sw.a, sw.b)
        return {node: uf.find(node) for node in self.nodes()}

    # -- voltage solve ----------------------------------------------------------

    def _solve_voltages(
        self, groups: Dict[int, Dict[str, str]]
    ) -> Tuple[float, Dict[str, float], Dict[Tuple[int, str], float]]:
        """Solve node voltages (V_in = 1) and the conversion ratio.

        Unknowns: one voltage per (phase, supernode) not pinned by a rail,
        one steady-state voltage per capacitor, plus the output voltage M
        (same in both phases because the output holds a large reservoir).
        """
        unknowns: List[Tuple[str, object]] = [
            ("cap", cap.name) for cap in self.capacitors]
        unknowns.append(("vout", None))
        for phase in (PHASE_1, PHASE_2):
            reps = sorted(set(groups[phase].values()))
            for rep in reps:
                unknowns.append(("node", (phase, rep)))
        index = {key: i for i, key in enumerate(unknowns)}

        rows: List[np.ndarray] = []
        rhs: List[float] = []

        def node_coeff(row: np.ndarray, phase: int, node: str, sign: float) -> float:
            """Add the voltage of ``node`` in ``phase`` to a constraint row.

            Returns any constant contribution moved to the RHS (rails).
            """
            rep = groups[phase][node]
            rep_of_gnd = groups[phase][GND]
            rep_of_vin = groups[phase][VIN]
            rep_of_vout = groups[phase][VOUT]
            if rep == rep_of_gnd and rep == rep_of_vin:
                raise ElectricalError(
                    f"{self.name}: phase {phase} shorts vin to gnd"
                )
            if rep == rep_of_gnd:
                return 0.0
            if rep == rep_of_vin:
                return sign * 1.0  # V_in normalised to 1; moved to RHS by caller
            if rep == rep_of_vout:
                row[index[("vout", None)]] += sign
                return 0.0
            row[index[("node", (phase, rep))]] += sign
            return 0.0

        n = len(unknowns)
        # Capacitor constraints: V_plus - V_minus = v_cap in both phases.
        for cap in self.capacitors:
            for phase in (PHASE_1, PHASE_2):
                row = np.zeros(n)
                constant = 0.0
                constant += node_coeff(row, phase, cap.plus, +1.0)
                constant += node_coeff(row, phase, cap.minus, -1.0)
                row[index[("cap", cap.name)]] -= 1.0
                rows.append(row)
                rhs.append(-constant)

        matrix = np.vstack(rows)
        vector = np.array(rhs)
        solution, _, rank, _ = np.linalg.lstsq(matrix, vector, rcond=None)
        residual = matrix @ solution - vector
        if np.max(np.abs(residual)) > 1e-8:
            raise ElectricalError(
                f"{self.name}: inconsistent network (voltage residual "
                f"{np.max(np.abs(residual)):.2e})"
            )
        if rank < n:
            # Some node is floating in some phase; the min-norm solution is
            # still physical for ratio/cap voltages only if the deficiency
            # does not involve vout or cap unknowns.  Verify by checking the
            # nullspace has no component on those unknowns.
            _, sigma, vt = np.linalg.svd(matrix)
            null_mask = np.zeros(n, dtype=bool)
            n_null = n - rank
            for row_idx in range(vt.shape[0] - n_null, vt.shape[0]):
                null_mask |= np.abs(vt[row_idx]) > 1e-8
            critical = [
                unknowns[i]
                for i in range(n)
                if null_mask[i] and unknowns[i][0] in ("cap", "vout")
            ]
            if critical:
                raise ElectricalError(
                    f"{self.name}: underdetermined network; floating unknowns "
                    f"{critical}"
                )

        ratio = float(solution[index[("vout", None)]])
        cap_voltages = {
            cap.name: float(solution[index[("cap", cap.name)]])
            for cap in self.capacitors
        }
        node_voltages: Dict[Tuple[int, str], float] = {}
        for phase in (PHASE_1, PHASE_2):
            for node in self.nodes():
                rep = groups[phase][node]
                if rep == groups[phase][GND]:
                    value = 0.0
                elif rep == groups[phase][VIN]:
                    value = 1.0
                elif rep == groups[phase][VOUT]:
                    value = ratio
                else:
                    value = float(solution[index[("node", (phase, rep))]])
                node_voltages[(phase, node)] = value
        return ratio, cap_voltages, node_voltages

    # -- charge solve ---------------------------------------------------------

    def _solve_charges(
        self, groups: Dict[int, Dict[str, str]]
    ) -> Tuple[Dict[str, float], Dict[Tuple[str, int], float]]:
        """Solve per-cycle charge flows for unit output charge.

        Unknowns: q_c per capacitor (into the plus terminal in phase 1;
        periodicity forces -q_c in phase 2), plus source charges
        q_in/q_out/q_gnd per phase.
        """
        caps = self.capacitors
        source_keys = [
            (VIN, PHASE_1),
            (VIN, PHASE_2),
            (VOUT, PHASE_1),
            (VOUT, PHASE_2),
            (GND, PHASE_1),
            (GND, PHASE_2),
        ]
        n = len(caps) + len(source_keys)
        cap_index = {cap.name: i for i, cap in enumerate(caps)}
        source_index = {key: len(caps) + i for i, key in enumerate(source_keys)}

        rows: List[np.ndarray] = []
        rhs: List[float] = []
        for phase in (PHASE_1, PHASE_2):
            phase_sign = 1.0 if phase == PHASE_1 else -1.0
            reps = sorted(set(groups[phase].values()))
            for rep in reps:
                row = np.zeros(n)
                members = [
                    node for node in self.nodes() if groups[phase][node] == rep
                ]
                for cap in caps:
                    if cap.plus in members:
                        # charge q_c flows INTO the plus terminal, i.e. out
                        # of the node group.
                        row[cap_index[cap.name]] -= phase_sign
                    if cap.minus in members:
                        row[cap_index[cap.name]] += phase_sign
                if VIN in members:
                    row[source_index[(VIN, phase)]] += 1.0
                if GND in members:
                    row[source_index[(GND, phase)]] += 1.0
                if VOUT in members:
                    row[source_index[(VOUT, phase)]] -= 1.0
                rows.append(row)
                rhs.append(0.0)
        # Normalisation: total output charge per cycle is 1.
        row = np.zeros(n)
        row[source_index[(VOUT, PHASE_1)]] = 1.0
        row[source_index[(VOUT, PHASE_2)]] = 1.0
        rows.append(row)
        rhs.append(1.0)

        matrix = np.vstack(rows)
        vector = np.array(rhs)
        solution, _, _, _ = np.linalg.lstsq(matrix, vector, rcond=None)
        residual = matrix @ solution - vector
        if np.max(np.abs(residual)) > 1e-8:
            raise ElectricalError(
                f"{self.name}: inconsistent charge flow (residual "
                f"{np.max(np.abs(residual)):.2e}); is vout reachable?"
            )
        cap_mult = {
            cap.name: float(solution[cap_index[cap.name]]) for cap in caps
        }
        source_charges = {
            key: float(solution[source_index[key]]) for key in source_keys
        }
        q_out = (source_charges[(VOUT, PHASE_1)]
                 + source_charges[(VOUT, PHASE_2)])
        if abs(q_out - 1.0) > 1e-6:
            raise ElectricalError(f"{self.name}: output charge normalisation failed")
        return cap_mult, source_charges

    def _solve_switch_charges(
        self,
        groups: Dict[int, Dict[str, str]],
        cap_mult: Dict[str, float],
        source_charges: Dict[Tuple[str, int], float],
    ) -> Dict[str, float]:
        """Recover individual switch charges by per-node KCL within phases."""
        result: Dict[str, float] = {}
        for phase in (PHASE_1, PHASE_2):
            phase_sign = 1.0 if phase == PHASE_1 else -1.0
            closed = [sw for sw in self.switches if sw.phase == phase]
            if not closed:
                continue
            sw_index = {sw.name: i for i, sw in enumerate(closed)}
            n = len(closed)
            rows: List[np.ndarray] = []
            rhs: List[float] = []
            for node in self.nodes():
                row = np.zeros(n)
                injection = 0.0  # charge entering the node from caps/sources
                for cap in self.capacitors:
                    if cap.plus == node:
                        injection -= phase_sign * cap_mult[cap.name]
                    if cap.minus == node:
                        injection += phase_sign * cap_mult[cap.name]
                if node == VIN:
                    injection += source_charges[(VIN, phase)]
                if node == GND:
                    injection += source_charges[(GND, phase)]
                if node == VOUT:
                    injection -= source_charges[(VOUT, phase)]
                for sw in closed:
                    if sw.a == node:
                        row[sw_index[sw.name]] -= 1.0  # flow a->b leaves a
                    if sw.b == node:
                        row[sw_index[sw.name]] += 1.0
                if np.any(row != 0.0) or abs(injection) > 0.0:
                    rows.append(row)
                    rhs.append(-injection)
            matrix = np.vstack(rows)
            vector = np.array(rhs)
            solution, _, _, _ = np.linalg.lstsq(matrix, vector, rcond=None)
            residual = matrix @ solution - vector
            if np.max(np.abs(residual)) > 1e-8:
                raise ElectricalError(
                    f"{self.name}: switch KCL inconsistent in phase {phase} "
                    f"(residual {np.max(np.abs(residual)):.2e})"
                )
            for sw in closed:
                result[sw.name] = float(solution[sw_index[sw.name]])
        # Switches that never conduct (misconfigured phase) get zero.
        for sw in self.switches:
            result.setdefault(sw.name, 0.0)
        return result

    def _blocking_voltages(
        self, node_voltages: Dict[Tuple[int, str], float]
    ) -> Dict[str, float]:
        """Off-phase voltage across each switch (device rating)."""
        blocking: Dict[str, float] = {}
        for sw in self.switches:
            off_phase = PHASE_2 if sw.phase == PHASE_1 else PHASE_1
            blocking[sw.name] = abs(
                node_voltages[(off_phase, sw.a)] - node_voltages[(off_phase, sw.b)]
            )
        return blocking
