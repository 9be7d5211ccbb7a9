"""The one result protocol every experiment entry point returns.

``run_sweep``, ``run_fault_sweep``, ``run_pricing_sweep``,
``run_service``/``run_service_sweep`` and ``autotune`` each produce a
different result class, but callers always want the same three things:

* :meth:`ResultBase.summary` — the rendered report a human reads;
* :meth:`ResultBase.to_json` — a JSON-stable dict for files and tests
  (deterministic key order, no timestamps, no backend fingerprints —
  the byte-identity surface of the cross-backend determinism tests);
* :attr:`ResultBase.manifest` — the reproducibility manifest of the run
  that produced it (``None`` unless the caller attached one, as the CLI
  artifacts do), replayable via
  :func:`repro.obs.manifest.manifest_argv`.

A sweep also reports its lost cells the same way: ``failures``,
:attr:`ResultBase.complete` and :meth:`ResultBase.failure_summary`.

Result classes subclass :class:`ResultBase` and implement the two
methods; callers can hold any experiment result through this one shape
instead of special-casing five return types.
"""

from __future__ import annotations

from typing import Optional, Sequence


class ResultBase:
    """Common protocol of every experiment result.

    Subclasses implement :meth:`summary` and :meth:`to_json`;
    :attr:`manifest` rides along as plain data so a result can always
    say how to reproduce itself, and :attr:`failures` names the cells
    a sweep lost.
    """

    #: reproducibility manifest of the producing run (``None`` until a
    #: caller attaches one via :meth:`with_manifest`)
    manifest: Optional[dict] = None

    #: cells that produced no result (captured errors / timeouts), in
    #: grid order; sweeps override this with their own list
    failures: Sequence = ()

    @property
    def complete(self) -> bool:
        """Whether every cell produced a result."""
        return not self.failures

    def failure_summary(self) -> str:
        """One line per failed cell; "" when the result is complete."""
        return "\n".join(str(f) for f in self.failures)

    def summary(self) -> str:
        """Human-readable report of this result."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement summary()"
        )

    def to_json(self) -> dict:
        """JSON-stable dict form (deterministic keys, plain types)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement to_json()"
        )

    def with_manifest(self, manifest: Optional[dict]) -> "ResultBase":
        """Attach the producing run's manifest; returns ``self``.

        Uses ``object.__setattr__`` so frozen dataclass subclasses work
        too — the manifest is provenance riding along, not part of the
        result's value.
        """
        object.__setattr__(self, "manifest", manifest)
        return self
