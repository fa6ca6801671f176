"""Fault injection and graceful degradation for the PicoCube simulation.

The paper's argument is that a harvested-energy node must survive a
hostile power environment.  This package makes that testable: typed
fault events (:mod:`~repro.faults.events`), deterministic seeded
schedules (:mod:`~repro.faults.schedule`), and an injector that applies
them to a live node mid-run (:mod:`~repro.faults.injector`) — composing
with the brownout-recovery state machine in :mod:`repro.core.node`, the
retry-aware fleet channel in :mod:`repro.net.fleet`, and the ``chaos``
Monte Carlo campaign in :mod:`repro.campaigns`.

Quick start::

    from repro.core.builder import build_tpms_node
    from repro.faults.events import HarvesterDropout
    from repro.faults.injector import FaultInjector
    from repro.faults.schedule import FaultSchedule

    node = build_tpms_node()
    node.attach_charger(lambda t: 20e-6)
    FaultInjector(node, FaultSchedule([
        HarvesterDropout(start_s=600.0, duration_s=1800.0),
    ])).arm()
    node.run(4 * 3600.0)
"""
