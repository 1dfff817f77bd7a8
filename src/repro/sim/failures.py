"""Back-compat shim: the fault models moved to :mod:`repro.sim.netmodel`.

The seed's failure surface (i.i.d. Bernoulli message loss + permanent
scheduled deaths) grew into the full network+fault subsystem under
:mod:`repro.sim.netmodel` — link models, beacon latency, crash/recovery
churn, energy depletion and the retry/ack exchange. I.i.d. loss is
:class:`~repro.sim.netmodel.links.BernoulliLink` inside a
:class:`~repro.sim.netmodel.network.NetworkModel`;
:class:`~repro.sim.netmodel.failures.NodeFailureSchedule` keeps its
historical import path here.

New code should import from :mod:`repro.sim.netmodel` directly.
"""

from __future__ import annotations

from repro.sim.netmodel.failures import NodeFailureSchedule

__all__ = ["NodeFailureSchedule"]
