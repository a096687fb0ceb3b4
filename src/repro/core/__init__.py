"""The DigiQ controller: the paper's primary contribution.

This package ties the substrates together into the system of the paper:

* :mod:`repro.core.architecture` — controller configuration and Table I.
* :mod:`repro.core.bitstream` — SFQ bitstream search for the stored gates.
* :mod:`repro.core.rz_delay` — Rz-by-delay analysis and Table II.
* :mod:`repro.core.decomposition` — single-qubit decomposition onto the
  per-qubit actual basis operations (DigiQ_opt and DigiQ_min).
* :mod:`repro.core.calibration` — the software calibration workflow of Sec. V.
* :mod:`repro.core.two_qubit` — CZ calibration, echo sequences, Fig. 7.
* :mod:`repro.core.scheduler` / :mod:`repro.core.execution` — SIMD scheduling
  and the execution-time model of Fig. 9.
* :mod:`repro.core.errors` — gate/circuit error analyses of Fig. 10.
"""
