"""PyVerus — a Python reproduction of *Verus: A Practical Foundation for
Systems Verification* (SOSP 2024).

Layers (bottom-up):

* :mod:`repro.smt` — a from-scratch SMT stack (SAT/EUF/LIA/BV/quantifiers)
  standing in for Z3,
* :mod:`repro.vc` — the verified language, VC generation, context pruning,
* :mod:`repro.lang` — the developer-facing `verus!{}`-style surface,
* :mod:`repro.epr` — `#[epr_mode]` (§3.2),
* :mod:`repro.sync` — VerusSync (§3.4),
* :mod:`repro.baselines` — Dafny/F*/Creusot/Prusti/Ivy-style pipelines for
  the millibenchmark comparisons (§4.1),
* :mod:`repro.systems` — the five case studies (§4.2),
* :mod:`repro.runtime` — executable substrates (network/pmem/scheduler).

:mod:`repro.api` is the programmatic front door: ``Session`` +
``VerifyConfig`` bundle parallelism, caching, diagnostics, and delta
re-verification behind one surface.
"""

__version__ = "1.0.0"
