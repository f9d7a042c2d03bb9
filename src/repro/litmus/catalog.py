"""Litmus-test corpus.

Two families:

* The classic Armv8 user-level shapes (SB, MP, LB, CoRR, WRC and their
  barrier/dependency variants), which pin the Promising Arm executor to
  the architecturally allowed/forbidden outcomes — the same role the
  herd7 corpus plays for the axiomatic model the paper's base model was
  proven equivalent to.
* The paper's Section 2 examples (1-7): kernel-code shapes that verify on
  an SC model yet misbehave on relaxed hardware, each in a *buggy* and a
  *fixed* (wDRF-conforming) variant.

Each :class:`LitmusTest` names a postcondition (register assignment) and
whether it must be observable on the SC and Promising Arm models; the
runner checks both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.ir import MemSpace, PTKind, Reg, ThreadBuilder, build_program
from repro.ir.program import MMUConfig, Program
from repro.memory.semantics import PTE_AF, PTE_DIRTY
from repro.mmu.pagetable import PageTableLayout


@dataclass(frozen=True)
class LitmusTest:
    """One litmus test: a program, a postcondition, and expectations.

    ``condition`` uses the ``t{tid}_{reg} = value`` convention of
    :func:`repro.memory.behaviors.admits`.  ``allowed_sc``/``allowed_rm``
    say whether the postcondition must be observable on each model.
    ``paper_ref`` ties the test back to the paper.
    """

    name: str
    program: Program
    condition: Dict[str, int]
    allowed_sc: bool
    allowed_rm: bool
    #: Whether the outcome is observable on the TSO model.  ``None``
    #: means "derive it": when SC and Promising Arm agree, the
    #: containment sandwich SC ⊆ TSO ⊆ Arm pins TSO to the shared
    #: verdict; when they diverge an explicit value is required for the
    #: runner to check anything beyond containment.
    allowed_tso: Optional[bool] = None
    description: str = ""
    paper_ref: str = ""
    max_promises: int = 1
    #: Optional final-memory constraints ((loc, value), ...) conjoined
    #: with the register condition — needed for coherence-order probes
    #: like S, R, and 2+2W where the outcome lives in memory.
    memory_condition: Tuple[Tuple[int, int], ...] = ()
    #: Relaxed-virtual-memory features (see
    #: :data:`repro.memory.semantics.VM_FEATURES`) the test runs under;
    #: the runner applies them to both model configurations.
    vm_features: Tuple[str, ...] = ()

    @property
    def exposes_rm_bug(self) -> bool:
        """True when relaxed hardware admits an outcome SC forbids."""
        return self.allowed_rm and not self.allowed_sc

    @property
    def expected_tso(self) -> Optional[bool]:
        """The TSO verdict, explicit or derived from the containment
        sandwich; ``None`` when only SC ⊆ TSO ⊆ Arm can be checked."""
        if self.allowed_tso is not None:
            return self.allowed_tso
        if self.allowed_sc == self.allowed_rm:
            return self.allowed_sc
        return None


X, Y, Z = 0x100, 0x200, 0x300


def _two(t0: ThreadBuilder, t1: ThreadBuilder, observed, init, name) -> Program:
    return build_program(
        [t0, t1], observed=observed, initial_memory=init, name=name
    )


# ---------------------------------------------------------------------------
# classic corpus
# ---------------------------------------------------------------------------

def store_buffering(dmb: bool = False) -> LitmusTest:
    """SB: both threads store then load the other location."""
    t0 = ThreadBuilder(0)
    t0.store(X, 1)
    if dmb:
        t0.barrier("full")
    t0.load("r0", Y)
    t1 = ThreadBuilder(1)
    t1.store(Y, 1)
    if dmb:
        t1.barrier("full")
    t1.load("r1", X)
    name = "SB+dmbs" if dmb else "SB"
    return LitmusTest(
        name=name,
        program=_two(t0, t1, {0: ["r0"], 1: ["r1"]}, {X: 0, Y: 0}, name),
        condition=dict(t0_r0=0, t1_r1=0),
        allowed_sc=False,
        allowed_rm=not dmb,
        # SB is THE hallmark TSO relaxation: each store sits in its
        # thread's buffer while the cross load reads the initial value.
        allowed_tso=not dmb,
        description="store buffering: both loads read the initial value",
    )


def message_passing(variant: str = "plain") -> LitmusTest:
    """MP: writer sets data then flag; reader sees flag but stale data?

    Variants: ``plain`` (allowed on RM), ``rel-acq``, ``dmb`` (both sides
    full barriers), ``addr`` (address-dependent reader) — all forbidden.
    """
    t0 = ThreadBuilder(0)
    t1 = ThreadBuilder(1)
    if variant == "plain":
        t0.store(X, 1).store(Y, 1)
        t1.load("r0", Y).load("r1", X)
    elif variant == "rel-acq":
        t0.store(X, 1).store(Y, 1, release=True)
        t1.load("r0", Y, acquire=True).load("r1", X)
    elif variant == "dmb":
        t0.store(X, 1).barrier("full").store(Y, 1)
        t1.load("r0", Y).barrier("full").load("r1", X)
    elif variant == "addr":
        # MP+dmb.st+addr: writer orders its stores; reader's second
        # address depends on the first read's value (X + (r0 - r0), an
        # artificial but architecturally real address dependency).
        # Without the writer-side barrier the outcome stays allowed.
        t0.store(X, 1).barrier("st").store(Y, 1)
        t1.load("r0", Y).load("r1", Reg("r0") - Reg("r0") + X)
    else:
        raise ValueError(variant)
    name = f"MP+{variant}" if variant != "plain" else "MP"
    return LitmusTest(
        name=name,
        program=_two(t0, t1, {1: ["r0", "r1"]}, {X: 0, Y: 0}, name),
        condition=dict(t1_r0=1, t1_r1=0),
        allowed_sc=False,
        allowed_rm=(variant == "plain"),
        allowed_tso=False,  # TSO keeps both store/store and load/load order
        description="message passing: flag observed but data stale",
    )


def load_buffering(variant: str = "plain") -> LitmusTest:
    """LB (the paper's Example 1 shape): loads read from later stores.

    Variants: ``plain`` (allowed: stores may be promised early), ``data``
    (data-dependent on both sides: forbidden — no out-of-thin-air),
    ``one-data`` (dependency on one side only: still allowed), ``ctrl``
    (control-dependent stores: forbidden on Arm).
    """
    t0 = ThreadBuilder(0)
    t1 = ThreadBuilder(1)
    if variant == "plain":
        t0.load("r0", X).store(Y, 1)
        t1.load("r1", Y).store(X, 1)
    elif variant == "data":
        t0.load("r0", X).store(Y, "r0")
        t1.load("r1", Y).store(X, "r1")
    elif variant == "one-data":
        t0.load("r0", X).store(Y, 1)
        t1.load("r1", Y).store(X, "r1")
    elif variant == "ctrl":
        for tb, src, dst, reg in ((t0, X, Y, "r0"), (t1, Y, X, "r1")):
            skip = tb.fresh_label("skip")
            tb.load(reg, src)
            tb.bz(Reg(reg), skip)
            tb.store(dst, 1)
            tb.label(skip)
    else:
        raise ValueError(variant)
    name = f"LB+{variant}" if variant != "plain" else "LB"
    return LitmusTest(
        name=name,
        program=_two(t0, t1, {0: ["r0"], 1: ["r1"]}, {X: 0, Y: 0}, name),
        condition=dict(t0_r0=1, t1_r1=1),
        allowed_sc=False,
        allowed_rm=(variant in ("plain", "one-data")),
        allowed_tso=False,  # no load/store reordering under TSO
        description="load buffering / out-of-order writes",
        paper_ref="Example 1" if variant == "plain" else "",
    )


def coherence_rr() -> LitmusTest:
    """CoRR: two reads of one location must not go backwards in
    coherence order — even on relaxed Arm."""
    t0 = ThreadBuilder(0)
    t0.store(X, 1)
    t1 = ThreadBuilder(1)
    t1.load("r0", X).load("r1", X)
    return LitmusTest(
        name="CoRR",
        program=_two(t0, t1, {1: ["r0", "r1"]}, {X: 0}, "CoRR"),
        condition=dict(t1_r0=1, t1_r1=0),
        allowed_sc=False,
        allowed_rm=False,
        description="read-read coherence",
    )


def coherence_ww() -> LitmusTest:
    """CoWW+read-back: a thread's two stores to one location are ordered;
    its own later read must see the second."""
    t0 = ThreadBuilder(0)
    t0.store(X, 1).store(X, 2).load("r0", X)
    t1 = ThreadBuilder(1)
    t1.nop()
    return LitmusTest(
        name="CoWW",
        program=_two(t0, t1, {0: ["r0"]}, {X: 0}, "CoWW"),
        condition=dict(t0_r0=1),
        allowed_sc=False,
        allowed_rm=False,
        description="write-write coherence with read-back",
    )


def write_to_read_causality(dependencies: bool = True) -> LitmusTest:
    """WRC: write-to-read causality across three threads.

    Armv8 is multicopy-atomic, so with dependencies on both observer
    edges the non-causal outcome is forbidden; with plain accesses the
    reader may still locally reorder and observe it.
    """
    t0 = ThreadBuilder(0)
    t0.store(X, 1)
    t1 = ThreadBuilder(1)
    t2 = ThreadBuilder(2)
    if dependencies:
        t1.load("r0", X).store(Y, "r0")
        t2.load("r1", Y).load("r2", Reg("r1") - Reg("r1") + X)
    else:
        skip = t1.fresh_label("skip")
        t1.load("r0", X).bz(Reg("r0"), skip).store(Y, 1).label(skip)
        t2.load("r1", Y).load("r2", X)
    name = "WRC+deps" if dependencies else "WRC"
    program = build_program(
        [t0, t1, t2],
        observed={1: ["r0"], 2: ["r1", "r2"]},
        initial_memory={X: 0, Y: 0},
        name=name,
    )
    return LitmusTest(
        name=name,
        program=program,
        condition=dict(t1_r0=1, t2_r1=1, t2_r2=0),
        allowed_sc=False,
        allowed_rm=not dependencies,
        allowed_tso=False,  # TSO is multicopy-atomic and load/load ordered
        description="write-to-read causality (multicopy atomicity probe)",
    )


def atomic_increment_uniqueness() -> LitmusTest:
    """Two fetch-and-incs must return distinct values even on RM."""
    t0 = ThreadBuilder(0)
    t0.faa("r0", X)
    t1 = ThreadBuilder(1)
    t1.faa("r1", X)
    return LitmusTest(
        name="FAA-unique",
        program=_two(t0, t1, {0: ["r0"], 1: ["r1"]}, {X: 0}, "FAA-unique"),
        condition=dict(t0_r0=0, t1_r1=0),
        allowed_sc=False,
        allowed_rm=False,
        description="atomicity of fetch-and-increment",
    )


# ---------------------------------------------------------------------------
# the paper's Section 2 examples
# ---------------------------------------------------------------------------

TICKET, NOW, NEXT_VMID = 0x10, 0x11, 0x20


def example2_gen_vmid(correct: bool, n_cpus: int = 2, max_vm: int = 16) -> Program:
    """Example 2 (VM booting): ``gen_vmid`` with/without lock barriers."""
    threads = []
    for tid in range(n_cpus):
        b = ThreadBuilder(tid)
        b.faa("my_ticket", TICKET, acquire=correct)
        b.spin_until_eq("now", NOW, "my_ticket", acquire=correct)
        b.load("vmid", NEXT_VMID)
        overflow = b.fresh_label("overflow")
        done = b.fresh_label("done")
        b.mov("in_range", (Reg("vmid") < max_vm))
        b.bz(Reg("in_range"), overflow)
        b.store(NEXT_VMID, Reg("vmid") + 1)
        b.jump(done)
        b.label(overflow)
        b.panic("gen_vmid: VMID space exhausted")
        b.label(done)
        b.load("t", NOW)
        b.store(NOW, Reg("t") + 1, release=correct)
        threads.append(b)
    return build_program(
        threads,
        observed={tid: ["vmid"] for tid in range(n_cpus)},
        initial_memory={TICKET: 0, NOW: 0, NEXT_VMID: 0},
        name=f"gen_vmid[{'fixed' if correct else 'buggy'}]",
    )


def promise_heavy_program() -> Program:
    """A workload dominated by promise certification: one thread issues
    three promisable stores, the other reads them all.  Explored with
    ``max_promises_per_thread=3``; not part of :func:`full_corpus`."""
    x, y, z, w = 0x10, 0x20, 0x30, 0x40
    t0 = ThreadBuilder(0)
    t0.store(x, 1).store(y, 1).store(z, 1).load("r0", w)
    t1 = ThreadBuilder(1)
    t1.store(w, 1).load("a", x).load("b", y).load("c", z)
    return build_program(
        [t0, t1],
        observed={0: ["r0"], 1: ["a", "b", "c"]},
        initial_memory={x: 0, y: 0, z: 0, w: 0},
        name="promise_heavy",
    )


def example2(correct: bool) -> LitmusTest:
    return LitmusTest(
        name=f"Example2-gen_vmid[{'fixed' if correct else 'buggy'}]",
        program=example2_gen_vmid(correct),
        condition=dict(t0_vmid=0, t1_vmid=0),
        allowed_sc=False,
        allowed_rm=not correct,
        allowed_tso=False,  # the ticket RMW drains the buffer either way
        description="two CPUs booting VMs receive the same VMID",
        paper_ref="Example 2",
    )


CTX, VCPU_STATE = 0x30, 0x31
ACTIVE, INACTIVE = 1, 0
SAVED_CTX_VALUE = 42


def example3_vcpu(correct: bool) -> Program:
    """Example 3 (VM context switch): save_vm / restore_vm.

    CPU 0 runs the vCPU: it saves the context then marks the vCPU state
    INACTIVE.  CPU 1 waits for INACTIVE, marks it ACTIVE, and restores
    the context.  Without release/acquire on the state variable, the
    context store can be observed *after* the state change and CPU 1
    restores a stale context.
    """
    t0 = ThreadBuilder(0)
    t0.store(CTX, SAVED_CTX_VALUE)                      # save vCPU context
    t0.store(VCPU_STATE, INACTIVE, release=correct)     # publish ownership
    t1 = ThreadBuilder(1)
    t1.spin_until_eq("s", VCPU_STATE, INACTIVE, acquire=correct)
    t1.store(VCPU_STATE, ACTIVE)
    t1.load("restored", CTX)                            # restore context
    return build_program(
        [t0, t1],
        observed={1: ["restored"]},
        initial_memory={CTX: 0, VCPU_STATE: ACTIVE},
        name=f"vcpu_switch[{'fixed' if correct else 'buggy'}]",
    )


def example3(correct: bool) -> LitmusTest:
    return LitmusTest(
        name=f"Example3-vcpu-switch[{'fixed' if correct else 'buggy'}]",
        program=example3_vcpu(correct),
        condition=dict(t1_restored=0),   # stale (pre-save) context restored
        allowed_sc=False,
        allowed_rm=not correct,
        allowed_tso=False,  # FIFO drain publishes CTX before VCPU_STATE
        description="vCPU context restored before it was saved",
        paper_ref="Example 3",
    )


def example4_pt_reads() -> Tuple[Program, Dict[str, int]]:
    """Example 4 (out-of-order page table reads).

    Pre: 0x80 -> 0x10 (all-0), 0x81 -> 0x11 (all-0); kernel remaps both
    to all-1 pages.  A user thread reading y then x can see the *second*
    remap but not the first.
    """
    layout = PageTableLayout(base=0x1000, levels=2, va_bits_per_level=4)
    p10, p11, p20, p21 = 0x10, 0x11, 0x20, 0x21
    layout.map(0x80, p10)
    layout.map(0x81, p11)
    pte80 = layout.leaf_entry(0x80)
    pte81 = layout.leaf_entry(0x81)
    init = layout.initial_memory()
    init.update({p10: 0, p11: 0, p20: 1, p21: 1})
    t0 = ThreadBuilder(0)
    t0.pt_store(pte80, p20, kind=PTKind.STAGE2, level=1)
    t0.pt_store(pte81, p21, kind=PTKind.STAGE2, level=1)
    t1 = ThreadBuilder(1, is_kernel=False)
    t1.vload("r0", 0x81).vload("r1", 0x80)
    program = build_program(
        [t0, t1],
        observed={1: ["r0", "r1"]},
        initial_memory=init,
        mmu=layout.mmu_config(),
        name="Example4-pt-reads",
    )
    return program, dict(t1_r0=1, t1_r1=0)


def example4() -> LitmusTest:
    program, condition = example4_pt_reads()
    return LitmusTest(
        name="Example4-pt-reads",
        program=program,
        condition=condition,
        allowed_sc=False,
        allowed_rm=True,
        allowed_tso=False,  # reads stay ordered; no stale walker reads
        description="user observes second PT remap but not the first",
        paper_ref="Example 4",
    )


SECRET_VALUE = 77


def example5_pt_writes(transactional: bool) -> Program:
    """Example 5 (out-of-order page table writes).

    Buggy: the kernel unmaps a PGD then writes a PTE under it; a racing
    walk can see the new PTE through the still-mapped (stale) PGD and
    reach physical page p, even though the final page table leaves the
    address unmapped — an RM-only leak.

    Transactional: the ``set_s2pt`` insert discipline of Section 5.4 —
    the new leaf lives in a freshly allocated zeroed table that is linked
    into an *empty* PGD slot.  Under any reordering a partial walk
    faults; only the complete update exposes the page, which is then also
    the SC post-state (no RM-only outcome).
    """
    layout = PageTableLayout(base=0x1000, levels=2, va_bits_per_level=4)
    layout.map(0x01, 0x60)  # forces the 0x0X intermediate table to exist
    secret_page = 0x40
    init = layout.initial_memory()
    init[secret_page] = SECRET_VALUE

    t0 = ThreadBuilder(0)
    if transactional:
        # Map vpn 0x15 (empty PGD slot 1): walk-allocate-set in program
        # order, exactly the write sequence set_s2pt performs.
        writes = layout.plan_map(0x15, secret_page)
        for loc, value, level in writes:
            t0.pt_store(loc, value, kind=PTKind.STAGE2, level=level)
        victim_vpn = 0x15
    else:
        pgd_x = layout.entry_path(0x05)[0]
        pte_y = layout.entry_path(0x05)[1]
        t0.pt_store(pgd_x, 0, kind=PTKind.STAGE2, level=0)
        t0.pt_store(pte_y, secret_page, kind=PTKind.STAGE2, level=1)
        victim_vpn = 0x05
    t1 = ThreadBuilder(1, is_kernel=False)
    t1.vload("r0", victim_vpn)
    return build_program(
        [t0, t1],
        observed={1: ["r0"]},
        initial_memory=init,
        mmu=layout.mmu_config(),
        name=f"pt_writes[{'transactional' if transactional else 'buggy'}]",
    )


def example5(transactional: bool = False) -> LitmusTest:
    kind = "transactional" if transactional else "buggy"
    return LitmusTest(
        name=f"Example5-pt-writes[{kind}]",
        program=example5_pt_writes(transactional),
        condition=dict(t1_r0=SECRET_VALUE),
        # Buggy: reading the secret is an RM-only leak (the final PT
        # leaves the address unmapped).  Transactional: reading the page
        # is the legitimate post-state, observable on both models.
        allowed_sc=transactional,
        allowed_rm=True,
        allowed_tso=transactional,  # the leak needs Arm's write reordering
        description="racing walk reaches a page through a half-applied update",
        paper_ref="Example 5",
    )


STALE_PAGE_VALUE = 55
DONE_FLAG = 0x500


def example6_tlb(with_barrier: bool) -> Program:
    """Example 6 (out-of-order page table and TLB reads).

    The kernel unmaps 0x8 and invalidates the TLB, then signals
    completion; a user thread that observes the signal must no longer
    reach the old physical page.  Without a barrier between the unmap and
    the TLBI, a racing walk can refill the TLB from the stale entry.
    """
    layout = PageTableLayout(base=0x1000, levels=1, va_bits_per_level=4)
    layout.map(0x8, 0x10)
    pte = layout.leaf_entry(0x8)
    init = layout.initial_memory()
    init[0x10] = STALE_PAGE_VALUE
    init[DONE_FLAG] = 0
    t0 = ThreadBuilder(0)
    t0.pt_store(pte, 0, kind=PTKind.STAGE2, level=0)
    if with_barrier:
        t0.barrier("full")
    t0.tlbi(0x8)
    t0.store(DONE_FLAG, 1, release=True)
    t1 = ThreadBuilder(1, is_kernel=False)
    t1.spin_until_eq("d", DONE_FLAG, 1, acquire=True)
    t1.vload("r0", 0x8)
    return build_program(
        [t0, t1],
        observed={1: ["r0"]},
        initial_memory=init,
        mmu=layout.mmu_config(),
        name=f"tlb_inval[{'barrier' if with_barrier else 'buggy'}]",
    )


def example6(with_barrier: bool = False) -> LitmusTest:
    kind = "barrier" if with_barrier else "buggy"
    return LitmusTest(
        name=f"Example6-tlbi[{kind}]",
        program=example6_tlb(with_barrier),
        condition=dict(t1_r0=STALE_PAGE_VALUE),
        allowed_sc=False,
        allowed_rm=not with_barrier,
        allowed_tso=False,  # TSO has no TLB-refill race to exploit
        description="stale translation survives a TLB invalidation",
        paper_ref="Example 6",
    )


def example7_user_to_kernel(use_oracle: bool) -> Program:
    """Example 7 (information flow from user programs to the kernel).

    Two user threads run Example 1's racy code and each bumps ``z`` when
    its read returned 1; on SC at most one read can return 1, so z <= 1.
    Kernel CPU 2 reads ``z`` and computes ``r2 = (z == 2 ? 0 : 1)`` — the
    divide-by-zero shape.  On RM both reads can return 1, z can reach 2,
    and the kernel's r2 becomes 0: user relaxed behavior propagated into
    verified kernel code.  With a data oracle (``use_oracle=True``) the
    kernel's read is masked and its SC-proved behavior envelope already
    contains every outcome.
    """
    t0 = ThreadBuilder(0, is_kernel=False)
    t0.load("r0", X).store(Y, 1)
    skip0 = t0.fresh_label("skip")
    t0.bz(Reg("r0"), skip0)
    t0.faa("tmp", Z, space=MemSpace.USER)
    t0.label(skip0)

    t1 = ThreadBuilder(1, is_kernel=False)
    t1.load("r1", Y).store(X, "r1")
    skip1 = t1.fresh_label("skip")
    t1.bz(Reg("r1"), skip1)
    t1.faa("tmp", Z, space=MemSpace.USER)
    t1.label(skip1)

    t2 = ThreadBuilder(2, is_kernel=True)
    if use_oracle:
        t2.oracle_read("z", Z, choices=(0, 1, 2))
    else:
        t2.load("z", Z, space=MemSpace.USER)
    t2.mov("r2", Reg("z").ne(2))
    return build_program(
        [t0, t1, t2],
        observed={2: ["r2"]},
        initial_memory={X: 0, Y: 0, Z: 0},
        spaces={X: MemSpace.USER, Y: MemSpace.USER, Z: MemSpace.USER},
        name=f"user_flow[{'oracle' if use_oracle else 'direct'}]",
    )


def example7(use_oracle: bool = False) -> LitmusTest:
    kind = "oracle" if use_oracle else "direct"
    return LitmusTest(
        name=f"Example7-user-flow[{kind}]",
        program=example7_user_to_kernel(use_oracle),
        condition=dict(t2_r2=0),
        allowed_sc=use_oracle,   # the oracle already admits z=2 on SC
        allowed_rm=True,
        allowed_tso=use_oracle,  # LB's z=2 outcome needs Arm promises
        description="user RM behavior reaches kernel through memory reads",
        paper_ref="Example 7",
    )


# One-thread LB on the user side means Example 1 itself:
def example1() -> LitmusTest:
    test = load_buffering("plain")
    return LitmusTest(
        name="Example1-out-of-order-write",
        program=test.program,
        condition=test.condition,
        allowed_sc=False,
        allowed_rm=True,
        allowed_tso=False,  # same shape as LB
        description="out-of-order write observed (paper Example 1)",
        paper_ref="Example 1",
    )


def shape_s(dmb_writer: bool = False) -> LitmusTest:
    """S: T0 stores data then raises a flag; T1 reads the flag and
    overwrites the data with a dependent store.  ``final X == 2 and
    r0 == 1`` requires T1's (dependent, hence ordered) store to land
    coherence-before T0's first store while still reading T0's second —
    possible only if T0's stores were reordered."""
    t0 = ThreadBuilder(0)
    t0.store(X, 2)
    if dmb_writer:
        t0.barrier("st")
    t0.store(Y, 1)
    t1 = ThreadBuilder(1)
    t1.load("r0", Y).store(X, Reg("r0") - Reg("r0") + 1)  # data dep
    name = "S+dmb.st+data" if dmb_writer else "S+data"
    return LitmusTest(
        name=name,
        program=_two(t0, t1, {1: ["r0"]}, {X: 0, Y: 0}, name),
        condition=dict(t1_r0=1),
        memory_condition=((X, 2),),
        allowed_sc=False,
        allowed_rm=not dmb_writer,
        allowed_tso=False,  # FIFO buffers keep T0's stores in order
        description="S shape (write-after-read coherence probe)",
    )


def two_plus_two_w(release: bool = False) -> LitmusTest:
    """2+2W: both threads write both locations in opposite orders.

    ``final X == 1 and Y == 1`` means each thread's *second* write lost
    to the other's *first* — both threads' stores were reordered.
    Allowed on plain Arm stores, forbidden with release second stores
    (and on SC).
    """
    t0 = ThreadBuilder(0)
    t0.store(X, 1).store(Y, 2, release=release)
    t1 = ThreadBuilder(1)
    t1.store(Y, 1).store(X, 2, release=release)
    name = "2+2W+rel" if release else "2+2W"
    program = _two(t0, t1, {}, {X: 0, Y: 0}, name)
    return LitmusTest(
        name=name,
        program=program,
        condition={},
        memory_condition=((X, 1), (Y, 1)),
        allowed_sc=False,
        allowed_rm=not release,
        allowed_tso=False,  # store/store reordering is not a TSO relaxation
        description="2+2W write-write reordering probe",
        max_promises=1,
    )


def isa2() -> LitmusTest:
    """ISA2: three-thread transitive message passing with full
    dependency/barrier chain — forbidden on Armv8."""
    t0 = ThreadBuilder(0)
    t0.store(X, 1).store(Y, 1, release=True)
    t1 = ThreadBuilder(1)
    t1.load("r0", Y, acquire=True).store(Z, "r0")
    t2 = ThreadBuilder(2)
    t2.load("r1", Z, acquire=True).load("r2", X)
    program = build_program(
        [t0, t1, t2],
        observed={1: ["r0"], 2: ["r1", "r2"]},
        initial_memory={X: 0, Y: 0, Z: 0},
        name="ISA2",
    )
    return LitmusTest(
        name="ISA2",
        program=program,
        condition=dict(t1_r0=1, t2_r1=1, t2_r2=0),
        allowed_sc=False,
        allowed_rm=False,
        description="transitive release/acquire message passing",
    )


def isa2_plain() -> LitmusTest:
    """ISA2 without any ordering: the stale read is allowed."""
    t0 = ThreadBuilder(0)
    t0.store(X, 1).store(Y, 1)
    t1 = ThreadBuilder(1)
    t1.load("r0", Y).store(Z, "r0")
    t2 = ThreadBuilder(2)
    t2.load("r1", Z).load("r2", X)
    program = build_program(
        [t0, t1, t2],
        observed={1: ["r0"], 2: ["r1", "r2"]},
        initial_memory={X: 0, Y: 0, Z: 0},
        name="ISA2+plain",
    )
    return LitmusTest(
        name="ISA2+plain",
        program=program,
        condition=dict(t1_r0=1, t2_r1=1, t2_r2=0),
        allowed_sc=False,
        allowed_rm=True,
        allowed_tso=False,
        description="ISA2 shape with no barriers",
    )


def shape_r(dmb: bool = True) -> LitmusTest:
    """R: store/store vs store/load.

    ``final Y == 2 and r0 == 0``: T1's store to Y won the coherence race
    (so T0 finished both stores first) yet T1 still read the old X.
    Forbidden with full barriers on both threads; allowed plain.
    """
    t0 = ThreadBuilder(0)
    t0.store(X, 1)
    if dmb:
        t0.barrier("full")
    t0.store(Y, 1)
    t1 = ThreadBuilder(1)
    t1.store(Y, 2)
    if dmb:
        t1.barrier("full")
    t1.load("r0", X)
    name = "R+dmbs" if dmb else "R"
    program = _two(t0, t1, {1: ["r0"]}, {X: 0, Y: 0}, name)
    return LitmusTest(
        name=name,
        program=program,
        condition=dict(t1_r0=0),
        memory_condition=((Y, 2),),
        allowed_sc=False,
        allowed_rm=not dmb,
        # Like SB, R is TSO-observable: T1's store to Y can drain (and
        # lose the coherence race) while its load of X ran early.
        allowed_tso=not dmb,
        description="R shape (coherence + barrier interaction)",
    )


def iriw() -> LitmusTest:
    """IRIW: two writers, two readers observing them in opposite orders.

    The model separator of the portfolio: forbidden on SC (a single
    interleaving orders the writes one way), forbidden on TSO (store
    buffers drain into a *single* shared memory, so all threads agree on
    the write order — TSO is multicopy-atomic and keeps load/load
    order), yet allowed on pre-Armv8-style non-multicopy-atomic relaxed
    models, which the Promising executor reproduces via early promises.
    """
    t0 = ThreadBuilder(0)
    t0.store(X, 1)
    t1 = ThreadBuilder(1)
    t1.store(Y, 1)
    t2 = ThreadBuilder(2)
    t2.load("r0", X).load("r1", Y)
    t3 = ThreadBuilder(3)
    t3.load("r2", Y).load("r3", X)
    program = build_program(
        [t0, t1, t2, t3],
        observed={2: ["r0", "r1"], 3: ["r2", "r3"]},
        initial_memory={X: 0, Y: 0},
        name="IRIW",
    )
    return LitmusTest(
        name="IRIW",
        program=program,
        condition=dict(t2_r0=1, t2_r1=0, t3_r2=1, t3_r3=0),
        allowed_sc=False,
        allowed_rm=True,
        allowed_tso=False,
        description="independent readers disagree on the write order",
    )


def sb_rel_acq() -> LitmusTest:
    """SB with release stores and acquire loads is STILL allowed on Arm:
    release/acquire does not order a store before a later load."""
    t0 = ThreadBuilder(0)
    t0.store(X, 1, release=True).load("r0", Y, acquire=True)
    t1 = ThreadBuilder(1)
    t1.store(Y, 1, release=True).load("r1", X, acquire=True)
    return LitmusTest(
        name="SB+rel-acq",
        program=_two(t0, t1, {0: ["r0"], 1: ["r1"]}, {X: 0, Y: 0},
                     "SB+rel-acq"),
        condition=dict(t0_r0=0, t1_r1=0),
        allowed_sc=False,
        allowed_rm=True,
        allowed_tso=False,  # a TSO release store drains the buffer first
        description="release/acquire is not a full fence (SB stays allowed)",
    )


# ---------------------------------------------------------------------------
# relaxed-virtual-memory corpus (REPRO_VM_FEATURES behavior families)
# ---------------------------------------------------------------------------

#: Shared flat-table geometry for the VM-feature tests: a two-level walk
#: rooted at ``VM_ROOT`` whose level-0 entry points at table ``VM_T1``,
#: whose entry 0 maps vpn 0 to page ``VM_P1``.
VM_ROOT, VM_T1, VM_T2 = 0x200, 0x210, 0x220
VM_P1, VM_P2 = 0x100, 0x110
VM_FLAG = 0x300
VM_S2 = 0x400


def _vm_handshake_accessor(tid: int = 1) -> ThreadBuilder:
    """The VM tests' reader: waits for the updater's release, then loads."""
    a = ThreadBuilder(tid, "accessor", is_kernel=False)
    a.spin_until_eq("f", VM_FLAG, 1, acquire=True)
    a.vload("r", 0)
    return a


def vm_bbm(honest: bool) -> LitmusTest:
    """Break-before-make amalgamation (``bbm`` feature).

    An updater changes the live leaf entry vpn0 -> VM_P1 to vpn0 -> VM_P2
    and hands off with a release store.  The honest variant interposes the
    invalid entry plus a TLBI between the two live values
    (:meth:`ThreadBuilder.bbm_remap`); the amalgamated variant rewrites
    the live entry directly (store/DMB/TLBI) — sufficient discipline for
    invalid-to-live transitions, CONSTRAINED UNPREDICTABLE for
    live-to-live ones.  Under ``bbm`` the overwritten translation then
    stays a permanent walker candidate, so the accessor can still read
    the old frame *after* the handshake.
    """
    u = ThreadBuilder(0, "updater")
    if honest:
        u.bbm_remap(VM_T1 + 0, VM_P2, vpn=0, kind=PTKind.STAGE2, level=1)
    else:
        u.pt_store(VM_T1 + 0, VM_P2, kind=PTKind.STAGE2, level=1)
        u.barrier("full")
        u.tlbi(0)
        u.barrier("full")
    u.store(VM_FLAG, 1, release=True)
    program = build_program(
        [u, _vm_handshake_accessor()],
        observed={1: ("r",)},
        initial_memory={
            VM_ROOT: VM_T1, VM_T1: VM_P1, VM_P1: 1, VM_P2: 2, VM_FLAG: 0,
        },
        mmu=MMUConfig(root=VM_ROOT),
        name=f"vm_bbm[{'honest' if honest else 'amalgamated'}]",
    )
    return LitmusTest(
        name=f"VM-bbm[{'honest' if honest else 'amalgamated'}]",
        program=program,
        condition=dict(t1_r=1),
        allowed_sc=False,
        allowed_rm=not honest,
        allowed_tso=False,  # amalgamation is a walker relaxation, Arm-only
        description=(
            "break-before-make interposes an invalid entry; skipping the "
            "break leaves the old translation amalgamated forever"
        ),
        paper_ref="Simner et al. §4 (break-before-make)",
        vm_features=("bbm",),
    )


def vm_walk_cache(leaf_only: bool) -> LitmusTest:
    """Partial caching of intermediate walk entries (``walk-cache``).

    The updater honestly break-before-makes the *non-leaf* root entry
    from table VM_T1 to table VM_T2.  With full TLBIs the accessor's
    cached intermediate descriptor is expelled and the post-handshake
    load must reach the new table's frame (or fault inside the window).
    With last-level (``leaf_only``) TLBIs the cached level-0 descriptor
    survives, and the accessor can keep walking through the stale table
    to the old frame.
    """
    u = ThreadBuilder(0, "updater")
    u.pt_store(VM_ROOT + 0, 0, kind=PTKind.STAGE2, level=0)
    u.barrier("full")
    u.tlbi(0, leaf_only=leaf_only)
    u.barrier("full")
    u.pt_store(VM_ROOT + 0, VM_T2, kind=PTKind.STAGE2, level=0)
    u.barrier("full")
    u.tlbi(0, leaf_only=leaf_only)
    u.barrier("full")
    u.store(VM_FLAG, 1, release=True)
    a = ThreadBuilder(1, "accessor", is_kernel=False)
    a.vload("pre", 0)  # primes the walk cache with the old descriptor
    a.spin_until_eq("f", VM_FLAG, 1, acquire=True)
    a.tlbi(0, leaf_only=True)  # drops the leaf TLB entry, not the cache
    a.vload("r", 0)
    program = build_program(
        [u, a],
        observed={1: ("pre", "r")},
        initial_memory={
            VM_ROOT: VM_T1, VM_T1: VM_P1, VM_T2: VM_P2,
            VM_P1: 1, VM_P2: 2, VM_FLAG: 0,
        },
        mmu=MMUConfig(root=VM_ROOT),
        name=f"vm_walk_cache[{'leaf-only' if leaf_only else 'full'}-tlbi]",
    )
    return LitmusTest(
        name=f"VM-walk-cache[{'leaf-only' if leaf_only else 'full'}-tlbi]",
        program=program,
        condition=dict(t1_r=1),
        allowed_sc=False,
        allowed_rm=leaf_only,
        allowed_tso=False,  # walk caching is a walker relaxation, Arm-only
        description=(
            "a leaf-only TLBI leaves stale intermediate walk entries "
            "cached; only a non-leaf invalidation expels them"
        ),
        paper_ref="Simner et al. §3.3 (partial caching of walks)",
        vm_features=("walk-cache",),
    )


def vm_dirty_bit() -> LitmusTest:
    """Hardware access/dirty updates (``had``).

    A user store through the vpn0 mapping must leave the leaf entry with
    both the access flag and the dirty bit set — the walker's atomic
    read-modify-write is a coherence participant, so the final memory
    state carries the update on both models.
    """
    a = ThreadBuilder(0, "accessor", is_kernel=False)
    a.vstore(0, 9)
    program = build_program(
        [a],
        observed={},
        initial_memory={VM_ROOT: VM_T1, VM_T1: VM_P1, VM_P1: 1},
        mmu=MMUConfig(root=VM_ROOT),
        name="vm_dirty_bit",
    )
    return LitmusTest(
        name="VM-dirty-bit",
        program=program,
        condition={},
        allowed_sc=True,
        allowed_rm=True,
        description=(
            "a completed store through a mapping leaves its leaf entry "
            "access-flagged and dirty"
        ),
        paper_ref="Simner et al. §3.6 (HW access/dirty updates)",
        memory_condition=(
            (VM_T1, VM_P1 | PTE_AF | PTE_DIRTY),
            (VM_P1, 9),
        ),
        vm_features=("had",),
    )


def vm_stage2_tlbi(stage: Optional[int]) -> LitmusTest:
    """Per-stage TLBI scope under two-stage translation (``stage2``).

    Stage-1 tables map vpn 0 through VM_T1 to intermediate page VM_P1;
    the flat stage-2 table at VM_S2 backs VM_P1 with physical frame 0x120
    (value 10), which the updater remaps to frame 0x130 (value 20).  A
    TLBI scoped to stage 1 alone never raises the stage-2 walker floor,
    so the accessor can keep translating through the stale stage-2 entry;
    a stage-2 or both-stage invalidation forbids that.
    """
    pa_a, pa_b = 0x120, 0x130
    u = ThreadBuilder(0, "updater")
    u.pt_store(VM_S2 + VM_P1, pa_b, kind=PTKind.STAGE2, level=1)
    u.barrier("full")
    u.tlbi(0, stage=stage)
    u.barrier("full")
    u.store(VM_FLAG, 1, release=True)
    init = {
        VM_ROOT: VM_T1, VM_T1: VM_P1,
        VM_S2 + VM_ROOT: VM_ROOT, VM_S2 + VM_T1: VM_T1, VM_S2 + VM_P1: pa_a,
        pa_a: 10, pa_b: 20, VM_FLAG: 0,
    }
    scope = "both" if stage is None else f"stage{stage}"
    program = build_program(
        [u, _vm_handshake_accessor()],
        observed={1: ("r",)},
        initial_memory=init,
        mmu=MMUConfig(root=VM_ROOT, stage2_root=VM_S2),
        name=f"vm_stage2_tlbi[{scope}]",
    )
    return LitmusTest(
        name=f"VM-stage2-tlbi[{scope}]",
        program=program,
        condition=dict(t1_r=10),
        allowed_sc=False,
        allowed_rm=stage == 1,
        allowed_tso=False,  # per-stage TLB scoping is a walker relaxation
        description=(
            "a stage-1-scoped TLBI does not invalidate stage-2 "
            "translations; the stale intermediate-physical mapping "
            "survives unless the invalidation covers stage 2"
        ),
        paper_ref="Simner et al. §3.5 (two-stage translation)",
        vm_features=("stage2",),
    )


def vm_corpus() -> List[LitmusTest]:
    """The relaxed-virtual-memory feature families."""
    return [
        vm_bbm(honest=True),
        vm_bbm(honest=False),
        vm_walk_cache(leaf_only=False),
        vm_walk_cache(leaf_only=True),
        vm_dirty_bit(),
        vm_stage2_tlbi(stage=1),
        vm_stage2_tlbi(stage=2),
        vm_stage2_tlbi(stage=None),
    ]


def extended_corpus() -> List[LitmusTest]:
    """Additional shapes beyond the core corpus."""
    return [
        shape_s(False),
        shape_s(True),
        two_plus_two_w(False),
        two_plus_two_w(True),
        isa2(),
        isa2_plain(),
        shape_r(True),
        shape_r(False),
        iriw(),
        sb_rel_acq(),
    ]


def classic_corpus() -> List[LitmusTest]:
    return [
        store_buffering(False),
        store_buffering(True),
        message_passing("plain"),
        message_passing("rel-acq"),
        message_passing("dmb"),
        message_passing("addr"),
        load_buffering("plain"),
        load_buffering("data"),
        load_buffering("one-data"),
        load_buffering("ctrl"),
        coherence_rr(),
        coherence_ww(),
        write_to_read_causality(True),
        write_to_read_causality(False),
        atomic_increment_uniqueness(),
    ]


def paper_examples() -> List[LitmusTest]:
    return [
        example1(),
        example2(correct=False),
        example2(correct=True),
        example3(correct=False),
        example3(correct=True),
        example4(),
        example5(transactional=False),
        example5(transactional=True),
        example6(with_barrier=False),
        example6(with_barrier=True),
        example7(use_oracle=False),
        example7(use_oracle=True),
    ]


def full_corpus() -> List[LitmusTest]:
    return (
        classic_corpus() + extended_corpus() + paper_examples() + vm_corpus()
    )
