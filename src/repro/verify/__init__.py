"""Protocol verification subsystem.

Three pillars (see docs/TESTING.md):

* :mod:`repro.verify.litmus` — declarative litmus tests (SB, MP, CoRR,
  IRIW, 2+2W, atomicity) compiled onto :class:`~repro.system.Manycore`,
  run against every backend and MAC, including variants that cross the
  ``MaxWiredSharers`` threshold mid-test; and the one program run
  (``run_programs``) both it and the fuzz trials judge.
* :mod:`repro.verify.fuzz` — fault-injecting fuzz campaigns: seeded random
  multi-core programs plus perturbation knobs (jam storms, tone-hold
  jitter, mesh-latency jitter, backoff re-seeding) with online invariant
  checking and end-of-run oracles.
* :mod:`repro.verify.artifacts` — replayable failure artifacts: a failing
  (program, config, seeds) bundle serialized to JSON, shrunk by a
  delta-debugging pass, and replayed via ``repro verify replay``.

:mod:`repro.verify.mutations` holds seeded protocol mutations used to
validate that campaigns actually catch bugs (mutation smoke testing).
"""

from repro.verify.litmus import LitmusTest, litmus_suite, run_litmus
from repro.verify.fuzz import FuzzCampaign, TrialSpec, run_campaign
from repro.verify.artifacts import FailureArtifact, shrink_trial

__all__ = [
    "LitmusTest",
    "litmus_suite",
    "run_litmus",
    "FuzzCampaign",
    "TrialSpec",
    "run_campaign",
    "FailureArtifact",
    "shrink_trial",
]
