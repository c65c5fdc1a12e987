"""Software fault injection.

The paper's failure hypothesis is radiation-induced single event
upsets (SEUs) hitting processing elements or corrupting weights/input
data (Section II, ref [31]).  No radiation source ships with this
repository, so faults are injected in software -- the standard
practice of tools like PyTorchFI, re-implemented here for our NumPy
stack:

* :mod:`repro.faults.bitflip` -- IEEE-754 bit manipulation;
* :mod:`repro.faults.models` -- transient, intermittent, permanent
  (stuck-at) fault models with seeded randomness;
* :mod:`repro.faults.injector` -- a faulty
  :class:`~repro.reliable.execution_unit.ExecutionUnit` that corrupts
  arithmetic results, plus tensor corruption helpers for weights and
  activations;
* :mod:`repro.faults.campaign` -- outcome classification (masked /
  detected-recovered / detected-aborted / silent data corruption)
  for the trials of :func:`repro.campaigns.run_campaign`.
"""

from repro.faults.bitflip import flip_bit32, flip_bit64, random_bitflip
from repro.faults.models import (
    FaultModel,
    IntermittentFault,
    PermanentFault,
    TransientFault,
)
from repro.faults.injector import (
    FaultyExecutionUnit,
    corrupt_tensor,
    flip_weight_bits,
)
from repro.faults.campaign import Outcome, classify_outcome

__all__ = [
    "flip_bit32",
    "flip_bit64",
    "random_bitflip",
    "FaultModel",
    "TransientFault",
    "IntermittentFault",
    "PermanentFault",
    "FaultyExecutionUnit",
    "corrupt_tensor",
    "flip_weight_bits",
    "Outcome",
    "classify_outcome",
]
