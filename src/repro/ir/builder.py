"""Fluent assembler for kernel IR threads and programs.

Writing instruction tuples by hand is noisy; the builders below let the
litmus catalog, the SeKVM IR programs, and tests express kernel fragments
compactly::

    b = ThreadBuilder(tid=0)
    b.mov("t", 1)
    b.store(X, "t")
    b.barrier("st")
    b.store(Y, 1)
    thread = b.build(observed=("t",))

Every emit method returns ``self`` so calls can be chained.  Labels are
plain strings; :meth:`ThreadBuilder.fresh_label` generates collision-free
ones for generated control flow (spin loops).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import ProgramError
from repro.ir.expr import Expr, ExprLike, coerce
from repro.ir.instructions import (
    Barrier,
    BarrierKind,
    BranchIfNonZero,
    BranchIfZero,
    CompareAndSwap,
    FetchAndInc,
    Instruction,
    Jump,
    Label,
    Load,
    LoadExclusive,
    MemSpace,
    Mov,
    Nop,
    OracleRead,
    Panic,
    Pull,
    Push,
    Store,
    StoreExclusive,
    PTKind,
    TLBInvalidate,
    VLoad,
    VStore,
)
from repro.ir.program import MMUConfig, Program, Thread, make_program

_BARRIERS = {
    "full": BarrierKind.FULL,
    "sy": BarrierKind.FULL,
    "ld": BarrierKind.LD,
    "st": BarrierKind.ST,
    "isb": BarrierKind.ISB,
}


class ThreadBuilder:
    """Accumulates instructions for one thread."""

    def __init__(self, tid: int, name: str = "", is_kernel: bool = True):
        self.tid = tid
        self.name = name or f"cpu{tid}"
        self.is_kernel = is_kernel
        self._instrs: list[Instruction] = []
        self._label_counter = itertools.count()

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def emit(self, instr: Instruction) -> "ThreadBuilder":
        self._instrs.append(instr)
        return self

    def fresh_label(self, stem: str = "L") -> str:
        return f".{stem}_{self.tid}_{next(self._label_counter)}"

    def build(self, observed: Sequence[str] = ()) -> Thread:
        return Thread(
            tid=self.tid,
            instrs=tuple(self._instrs),
            name=self.name,
            is_kernel=self.is_kernel,
            observed=tuple(observed),
        )

    # ------------------------------------------------------------------
    # plain instructions
    # ------------------------------------------------------------------
    def mov(self, dst: str, src: ExprLike) -> "ThreadBuilder":
        return self.emit(Mov(dst, coerce(src)))

    def load(
        self,
        dst: str,
        addr: ExprLike,
        acquire: bool = False,
        space: MemSpace = MemSpace.KERNEL,
    ) -> "ThreadBuilder":
        return self.emit(Load(dst, coerce(addr), acquire=acquire, space=space))

    def store(
        self,
        addr: ExprLike,
        value: ExprLike,
        release: bool = False,
        space: MemSpace = MemSpace.KERNEL,
        pt_kind: Optional[PTKind] = None,
        pt_level: Optional[int] = None,
    ) -> "ThreadBuilder":
        return self.emit(
            Store(
                coerce(addr),
                coerce(value),
                release=release,
                space=space,
                pt_kind=pt_kind,
                pt_level=pt_level,
            )
        )

    def pt_store(
        self,
        addr: ExprLike,
        value: ExprLike,
        kind: PTKind,
        level: int,
        release: bool = False,
    ) -> "ThreadBuilder":
        """A store into page-table memory, tagged for the PT checkers."""
        return self.store(
            addr,
            value,
            release=release,
            space=MemSpace.PT,
            pt_kind=kind,
            pt_level=level,
        )

    def faa(
        self,
        dst: str,
        addr: ExprLike,
        amount: int = 1,
        acquire: bool = False,
        release: bool = False,
        space: MemSpace = MemSpace.SYNC,
    ) -> "ThreadBuilder":
        return self.emit(
            FetchAndInc(
                dst, coerce(addr), amount=amount, acquire=acquire,
                release=release, space=space,
            )
        )

    def cas(
        self,
        dst: str,
        addr: ExprLike,
        expected: ExprLike,
        desired: ExprLike,
        acquire: bool = False,
        release: bool = False,
        space: MemSpace = MemSpace.SYNC,
    ) -> "ThreadBuilder":
        return self.emit(
            CompareAndSwap(
                dst, coerce(addr), coerce(expected), coerce(desired),
                acquire=acquire, release=release, space=space,
            )
        )

    def ldxr(
        self,
        dst: str,
        addr: ExprLike,
        acquire: bool = False,
        space: MemSpace = MemSpace.SYNC,
    ) -> "ThreadBuilder":
        return self.emit(
            LoadExclusive(dst, coerce(addr), acquire=acquire, space=space)
        )

    def stxr(
        self,
        status: str,
        addr: ExprLike,
        value: ExprLike,
        release: bool = False,
        space: MemSpace = MemSpace.SYNC,
    ) -> "ThreadBuilder":
        return self.emit(
            StoreExclusive(
                status, coerce(addr), coerce(value), release=release,
                space=space,
            )
        )

    def barrier(self, kind: Union[str, BarrierKind]) -> "ThreadBuilder":
        if isinstance(kind, str):
            try:
                kind = _BARRIERS[kind.lower()]
            except KeyError:
                raise ProgramError(f"unknown barrier kind {kind!r}") from None
        return self.emit(Barrier(kind))

    def label(self, name: str) -> "ThreadBuilder":
        return self.emit(Label(name))

    def jump(self, target: str) -> "ThreadBuilder":
        return self.emit(Jump(target))

    def bz(self, cond: ExprLike, target: str) -> "ThreadBuilder":
        return self.emit(BranchIfZero(coerce(cond), target))

    def bnz(self, cond: ExprLike, target: str) -> "ThreadBuilder":
        return self.emit(BranchIfNonZero(coerce(cond), target))

    def vload(
        self, dst: str, vaddr: ExprLike, space: MemSpace = MemSpace.USER
    ) -> "ThreadBuilder":
        return self.emit(VLoad(dst, coerce(vaddr), space=space))

    def vstore(
        self, vaddr: ExprLike, value: ExprLike, space: MemSpace = MemSpace.USER
    ) -> "ThreadBuilder":
        return self.emit(VStore(coerce(vaddr), coerce(value), space=space))

    def tlbi(
        self,
        vaddr: Optional[ExprLike] = None,
        stage: Optional[int] = None,
        leaf_only: bool = False,
    ) -> "ThreadBuilder":
        return self.emit(
            TLBInvalidate(
                None if vaddr is None else coerce(vaddr),
                stage=stage,
                leaf_only=leaf_only,
            )
        )

    def bbm_remap(
        self,
        entry_loc: ExprLike,
        new_value: ExprLike,
        vpn: Optional[ExprLike] = None,
        stage: Optional[int] = None,
        kind: PTKind = PTKind.STAGE2,
        level: int = 1,
    ) -> "ThreadBuilder":
        """Emit a break-before-make remap of one page-table entry.

        The honest protocol Arm requires for changing a live translation
        entry to a different live value: write the invalid (0) entry,
        order it, invalidate the TLB, order the invalidation, then write
        the new entry and invalidate again.  The ``bbm-skipped`` seeded
        mutant (see :mod:`repro.memory.mutants`) drops the break phase —
        store-new/DMB/TLBI only, i.e. exactly the discipline
        Sequential-TLB-Invalidation asks for on *invalid-to-live*
        transitions, which is insufficient for live-to-live remaps under
        the ``bbm`` VM feature.
        """
        from repro.memory import mutants

        if not mutants.enabled("bbm-skipped"):
            self.pt_store(entry_loc, 0, kind=kind, level=level)
            self.barrier("full")
            self.tlbi(vpn, stage=stage)
            self.barrier("full")
        self.pt_store(entry_loc, new_value, kind=kind, level=level)
        self.barrier("full")
        self.tlbi(vpn, stage=stage)
        self.barrier("full")
        return self

    def pull(self, *locs: ExprLike) -> "ThreadBuilder":
        return self.emit(Pull(tuple(coerce(l) for l in locs)))

    def push(self, *locs: ExprLike) -> "ThreadBuilder":
        return self.emit(Push(tuple(coerce(l) for l in locs)))

    def oracle_read(
        self, dst: str, addr: ExprLike, choices: Sequence[int] = (0, 1)
    ) -> "ThreadBuilder":
        return self.emit(OracleRead(dst, coerce(addr), tuple(choices)))

    def panic(self, reason: str = "panic") -> "ThreadBuilder":
        return self.emit(Panic(reason))

    def nop(self) -> "ThreadBuilder":
        return self.emit(Nop())

    # ------------------------------------------------------------------
    # structured helpers
    # ------------------------------------------------------------------
    def spin_until_eq(
        self,
        reg: str,
        addr: ExprLike,
        expected: ExprLike,
        acquire: bool = False,
        space: MemSpace = MemSpace.SYNC,
    ) -> "ThreadBuilder":
        """``do { reg := [addr] } while (reg != expected)`` — the ticket
        lock's wait loop (Figure 1 / Figure 7)."""
        loop = self.fresh_label("spin")
        self.label(loop)
        self.load(reg, addr, acquire=acquire, space=space)
        cond = coerce(reg) - coerce(expected)
        return self.bnz(cond, loop)

    def if_eq(self, a: ExprLike, b: ExprLike) -> "_IfContext":
        """Structured ``if (a == b) { ... } else { ... }``; use as::

            with b.if_eq("r0", 1):
                b.store(X, 1)
        """
        return _IfContext(self, coerce(a) - coerce(b), invert=True)


class _IfContext:
    """Context manager emitting branch/label scaffolding for an if-block."""

    def __init__(self, builder: ThreadBuilder, cond: Expr, invert: bool):
        self._b = builder
        self._cond = cond
        self._invert = invert
        self._end = builder.fresh_label("endif")

    def __enter__(self) -> ThreadBuilder:
        # invert=True means: skip block when cond != 0 (i.e. a != b).
        if self._invert:
            self._b.bnz(self._cond, self._end)
        else:
            self._b.bz(self._cond, self._end)
        return self._b

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self._b.label(self._end)


def build_program(
    builders: Iterable[ThreadBuilder],
    observed: Optional[Mapping[int, Sequence[str]]] = None,
    initial_memory: Optional[Mapping[int, int]] = None,
    spaces: Optional[Mapping[int, MemSpace]] = None,
    mmu: Optional[MMUConfig] = None,
    name: str = "program",
) -> Program:
    """Finish a set of thread builders into a :class:`Program`."""
    observed = observed or {}
    threads = [b.build(observed=observed.get(b.tid, ())) for b in builders]
    return make_program(
        threads,
        initial_memory=initial_memory,
        spaces=spaces,
        mmu=mmu,
        name=name,
    )
