"""Columnar (numpy array) kernels for the scheduling hot paths.

The indexed kernels of DESIGN.md §9 made 50k-task runs *practical*
(~3-4 s/policy); this package makes them *fast* (~1 s) by abandoning
per-object traversal entirely on large DAGs: the workflow becomes a CSR
adjacency + per-task vectors (:mod:`repro.kernels.columnar`), ranking
and level sweeps become vectorized level-synchronous passes, and the
``AllPar*``/``StartPar*``/``OneVMperTask`` placement loops run against
flat per-VM arrays with a fused validation pass
(:mod:`repro.kernels.provision`).  :mod:`repro.kernels.replay` replaces
the discrete-event replay of ``verify`` runs with a recurrence sweep for
the homogeneous no-fault case.

Contract: **trace identity**.  Every columnar kernel must reproduce the
builder path's output byte-for-byte — same VM ids and rent windows,
same task timing, same makespan/cost, same ``MetricsRegistry`` counters
— property-tested in ``tests/core/test_kernel_equivalence.py`` over the
seeded DAG zoo.  The platform models are sealed data classes, so the
kernels may inline their formulas: the stock schedulers and policies
take the fused kernels on any platform, at every workflow size.
"""
