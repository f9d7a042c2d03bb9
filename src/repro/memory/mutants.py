"""Seeded semantic mutants (test-only hooks) for the conformance harness.

The differential conformance oracles in :mod:`repro.conformance` claim to
detect soundness bugs in the engine: a weakened barrier semantics, a
verification monitor that swallows violations, a state-space reduction
that drops a reachable behavior.  That claim is itself testable only
if such bugs can be *introduced on demand* — the classic
mutation-killing discipline.  This module is the single registry of
those seeded bug classes.

Each mutant is off by default and can only be enabled explicitly
(normally via the :func:`seeded` context manager in a test).  The hook
sites live in production code but reduce to one dictionary probe when no
mutant is active:

* ``weaken-barrier-full`` — ``dmb sy`` becomes a no-op in
  :func:`repro.memory.semantics._apply_barrier`: the full barrier no
  longer raises the thread's read/write frontiers, so fully fenced
  programs regain relaxed behaviors.  Killed by the RM ⊆ SC equivalence
  oracle on the ``fenced`` generation profile.
* ``weaken-drf-monitor`` — the streaming
  :class:`~repro.vrm.drf_kernel.DRFKernelMonitor` ignores ownership
  panics, so DRF-Kernel "verifies" racy programs.  Killed by the
  monitor-vs-exhaustive oracle, which recomputes the verdict from a
  monitor-free exploration's panic set.
* ``bbm-skipped`` — :meth:`repro.ir.builder.ThreadBuilder.bbm_remap`
  drops the break phase: a live page-table entry is rewritten directly
  to the new live value (store/DMB/TLBI, no invalid intermediate).
  Under the ``bbm`` VM feature the overwritten translation stays a
  permanent walker candidate, so accessors can keep using the old
  mapping after the updater's release fence — killed by the ``vm``
  conformance oracle's post-handshake translation check.
* ``stale-intermediate-walk`` — :func:`repro.memory.semantics._exec_tlbi`
  stops expelling cached intermediate (non-leaf) walk entries on
  non-leaf-scoped stage-1 TLBIs, so a stale level-1 descriptor cached
  under the ``walk-cache`` VM feature redirects walks forever.  Killed
  by the ``vm`` oracle: the accessor still reaches the unmapped old
  frame after a full break-before-make remap.
* ``lost-dirty-bit`` — :func:`repro.memory.semantics._hw_ad_update`
  omits ``PTE_DIRTY`` on stores (sets only the access flag), breaking
  the ``had`` VM feature's guarantee that a completed store through a
  mapping leaves its leaf entry dirty.  Killed by the ``vm`` oracle's
  final-state dirty-bit check.
* ``lost-flush`` — :func:`repro.memory.semantics.tso_flush_steps` pops
  the TSO store buffer's head without appending it to memory: the write
  simply vanishes.  Killed by the ``portability`` oracle — the SC
  behavior where the store lands becomes unreachable under TSO, so
  SC ⊆ TSO fails (and the value-less final state violates TSO ⊆ Arm).
* ``read-skips-own-buffer`` —
  :func:`repro.memory.semantics._read_candidates` stops forwarding from
  the thread's own store buffer, so a TSO thread can read a value *older
  than its own latest store* — a behavior no Arm coherence order admits.
  Killed by the ``portability`` oracle's TSO ⊆ Arm containment check.
* ``doomed-skips-current-store`` —
  :meth:`repro.memory.semantics.ProgramCache.doomed_tables` asks for a
  fulfilling store reachable from ``pc + 1`` instead of ``pc``, so a
  thread about to fulfil its promise with its last store looks doomed
  and the explorer drops the state: load-buffering behaviors vanish.
  Killed by the ``reduction`` oracle, whose reference DFS prunes
  nothing.

* ``await-loop-carried`` —
  :meth:`repro.memory.semantics.ProgramCache.await_backedges` stops
  checking for loop-carried registers and accepts stores in the loop
  body, so the explorer drops the back-edge of a pointer-chasing loop
  (``L: r := [r]; bnz r, L``) whose next iteration would read a new
  location: the behavior reached after the second iteration vanishes.
  Killed by the ``reduction`` oracle on a pinned pointer-chasing program.
* ``ample-ignores-panic`` — :class:`repro.memory.por.PORPlan` drops the
  panic gate of its local-step pass, scheduling a ``Mov`` into an
  observed register alone although another thread can panic first:
  with T0 ``mov r0 := 1`` beside T1 ``panic``, the panic behavior with
  ``r0`` unset disappears.  Killed by the ``por`` oracle.  Fuzz genomes
  have no branches, ``Mov`` instructions or panics, so both kills are direct
  :func:`~repro.conformance.oracles.check_program` tests rather than
  fuzzing-matrix rows.
* ``symmetry-skips-orbit`` — :func:`repro.memory.exploration.explore`
  keeps its thread-symmetry key but adds each terminal behavior only as
  reached, not under every permutation of the identical threads: with
  two identical threads ``r := faa [X]``, the behavior in which thread 1
  incremented first vanishes.  Killed by the ``reduction`` oracle on
  that pinned program (random genomes rarely have identical threads).

Active mutants are part of every exploration cache key (see
:func:`repro.memory.cache.exploration_key`), so a mutated engine can
never poison — or be masked by — results cached from the honest one.
"""

from __future__ import annotations

import contextlib
from typing import FrozenSet, Iterator, Set, Tuple

#: The seeded bug classes the mutation-killing suite must detect.
KNOWN_MUTANTS: Tuple[str, ...] = (
    "weaken-barrier-full",
    "weaken-drf-monitor",
    "bmc-drop-clause",
    "bmc-off-by-one-bound",
    "bbm-skipped",
    "stale-intermediate-walk",
    "lost-dirty-bit",
    "lost-flush",
    "read-skips-own-buffer",
    "doomed-skips-current-store",
    "await-loop-carried",
    "ample-ignores-panic",
    "symmetry-skips-orbit",
)

_active: Set[str] = set()


def enable(name: str) -> None:
    """Switch a seeded bug on (test-only; prefer :func:`seeded`)."""
    if name not in KNOWN_MUTANTS:
        raise ValueError(
            f"unknown mutant {name!r}; known: {', '.join(KNOWN_MUTANTS)}"
        )
    _active.add(name)


def disable(name: str) -> None:
    _active.discard(name)


def enabled(name: str) -> bool:
    """Is the named mutant active?  (The hook-site fast path.)"""
    return name in _active


def active() -> FrozenSet[str]:
    """The currently active mutants (cache-key material)."""
    return frozenset(_active)


def fingerprint() -> str:
    """Stable cache-key component describing the active mutants."""
    return ",".join(sorted(_active)) if _active else ""


@contextlib.contextmanager
def seeded(*names: str) -> Iterator[None]:
    """Enable the named mutants for the duration of a ``with`` block."""
    for name in names:
        enable(name)
    try:
        yield
    finally:
        for name in names:
            disable(name)
