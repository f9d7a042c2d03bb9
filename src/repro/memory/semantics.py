"""The step relation shared by the SC, Promising Arm, and push/pull models.

One executor implements all three hardware models of the paper:

* **SC** (``relaxed=False``): threads interleave; every read returns the
  globally latest write; there are no promises; MMU walkers read the
  latest page-table contents.  This is the model the bulk of SeKVM's
  proofs are carried out on.
* **Promising Arm** (``relaxed=True``): the operational relaxed model of
  Section 4 — reads may return stale messages subject to per-location
  coherence, dependency views, and barrier floors; stores may be
  *promised* ahead of program order subject to thread-local
  certification; MMU walkers read stale page-table entries unless a
  barrier-ordered TLBI has raised the walker floor.
* **push/pull Promising** (``pushpull=True`` on top of either): adds the
  ownership discipline of Section 4.1 — ``Pull`` panics on a location
  that is owned or whose last ``Push`` is not yet covered by this CPU's
  barrier frontier (the "fulfilled by barriers" requirement encoding
  No-Barrier-Misuse), ``Push`` panics without ownership, and plain kernel
  accesses to registered shared locations panic unless owned.

The functions here generate *all* successor states of a configuration;
:mod:`repro.memory.exploration` drives them to a fixpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro import config
from repro.errors import ExecutionError, ProgramError
from repro.ir.expr import Expr
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
    StoreExclusive,
    MemSpace,
    Mov,
    Nop,
    OracleRead,
    Panic,
    Pull,
    Push,
    Store,
    TLBInvalidate,
    VLoad,
    VStore,
)
from repro.ir.program import Program, Thread
from repro.memory import mutants
from repro.obs import tracer
from repro.memory.datatypes import (
    EngineStats,
    Fault,
    Message,
    last_write_ts,
    latest_write_ts,
    value_at,
)
from repro.memory.state import (
    ExecState,
    StateInterner,
    ThreadCtx,
    interning_enabled,
    tdel,
    tget,
    tset,
)


@dataclass(frozen=True)
class ModelConfig:
    """Which hardware model to run and with what exploration budgets.

    ``owned_access_required`` lists shared-data locations whose kernel
    accesses must happen under push/pull ownership (the instrumented
    critical-section footprints); accesses outside ownership panic, which
    is how the DRF-Kernel check becomes panic-freedom.
    ``initial_ownership`` seeds the ownership map (e.g. a vCPU context
    starts owned by the CPU currently running the vCPU).
    ``vm_features`` enables the relaxed-virtual-memory behavior families
    of :data:`VM_FEATURES`; empty (the default) is the seed MMU model,
    bit-identical to every pre-feature result.
    ``tso`` selects the x86/SPARC-style total-store-order model: the SC
    step relation plus per-thread FIFO store buffers (see
    :mod:`repro.memory.tso`).  Only meaningful with ``relaxed=False`` —
    the promising machinery stays off and TSO's extra weakness comes
    entirely from the buffers.
    """

    relaxed: bool = True
    pushpull: bool = False
    tso: bool = False
    max_promises_per_thread: int = 1
    promise_depth: int = 3
    cert_max_states: int = 4000
    max_memory: int = 64
    max_states: int = 400_000
    owned_access_required: FrozenSet[int] = frozenset()
    initial_ownership: Tuple[Tuple[int, int], ...] = ()
    oracle_sequences: Tuple[Tuple[int, ...], ...] = ()
    vm_features: FrozenSet[str] = frozenset()

    @property
    def check_barrier_fulfillment(self) -> bool:
        return self.relaxed and self.pushpull


#: Shorthand configurations for the three models of the paper.
SC = ModelConfig(relaxed=False)
PROMISING_ARM = ModelConfig(relaxed=True)
PUSH_PULL_SC = ModelConfig(relaxed=False, pushpull=True)
PUSH_PULL_PROMISING = ModelConfig(relaxed=True, pushpull=True)
#: x86/SPARC total store order: SC plus per-thread FIFO store buffers.
TSO = ModelConfig(relaxed=False, tso=True)


# ---------------------------------------------------------------------------
# architecture selection (REPRO_MODEL)
# ---------------------------------------------------------------------------

#: The three selectable architectures, strongest-admitting first:
#: ``arm`` (Promising Arm), ``tso`` (store-buffer TSO), ``sc``.  Every
#: TSO behavior of a program is an Arm behavior, and every SC behavior
#: is a TSO behavior — the containment :mod:`repro.vrm.portability`
#: certifies.
MODEL_NAMES: Tuple[str, ...] = config.MODEL_NAMES


def env_model() -> str:
    """The ``REPRO_MODEL`` environment selection (default ``arm``)."""
    return config.get("model")


def resolve_model(cfg: ModelConfig) -> ModelConfig:
    """Re-target a *relaxed* configuration to the ``REPRO_MODEL`` choice.

    The knob selects which architecture stands in for "the weak model"
    everywhere a relaxed exploration is requested — litmus RM columns,
    the fused wDRF monitor passes, conformance oracles, the serve job
    server.  Explicitly strong configurations (SC, TSO) express a model
    choice of their own and pass through untouched, so baselines and
    containment checks keep their meaning; ``arm`` (the default) is a
    no-op.  Applied identically by the explorer and by
    :func:`repro.memory.cache.exploration_key`, so a re-targeted run can
    never share a cache key with a default-model result.
    """
    if not cfg.relaxed or cfg.tso:
        return cfg
    name = env_model()
    if name == "arm":
        return cfg
    if name == "tso":
        return replace(cfg, relaxed=False, tso=True)
    return replace(cfg, relaxed=False)


# ---------------------------------------------------------------------------
# relaxed-virtual-memory feature families (Simner et al., "Relaxed virtual
# memory in Armv8-A")
# ---------------------------------------------------------------------------

#: The four modeled VM behavior families, each individually switchable:
#:
#: * ``bbm`` — break-before-make violations become observable: changing a
#:   live page-table entry directly to another live value (without the
#:   break/TLBI/make sequence) leaves the *old* translation as a permanent
#:   additional walker candidate — the model's reading of Arm's
#:   CONSTRAINED UNPREDICTABLE "amalgamation" of old and new entries.
#:   Honest break-before-make sequences (write invalid, DMB, TLBI, DMB,
#:   write new) never create a live-to-live transition and are unaffected.
#: * ``walk-cache`` — partial TLB caching of intermediate (non-leaf) walk
#:   entries: a walker that read a level-N table descriptor may keep
#:   serving it to later walks until a non-leaf-scoped stage-1 TLBI, so a
#:   stale intermediate descriptor can redirect a walk even after the
#:   leaf entry was invalidated (``leaf_only`` TLBIs preserve it).
#: * ``had`` — hardware access/dirty-bit management: every successful
#:   translation appends a walker-originated atomic update OR-ing
#:   :data:`PTE_AF` (and :data:`PTE_DIRTY` for stores) into the stage-1
#:   leaf entry; the update is an ordinary message participating in
#:   coherence, and walkers interpret entries modulo the attribute bits.
#: * ``stage2`` — two-stage translation: when the program's
#:   :class:`~repro.ir.program.MMUConfig` sets ``stage2_root``, every
#:   stage-1 table-entry address and the final output page are themselves
#:   stage-2 translated (one flat stage-2 table indexed by IPA), with
#:   per-stage TLBI scope (``TLBInvalidate.stage``) raising only the
#:   matching walker floor.
VM_FEATURES: Tuple[str, ...] = config.VM_FEATURES
parse_vm_features = config.parse_vm_features

#: Hardware-managed attribute bits of a stage-1 leaf entry under ``had``.
#: They sit far above any address the test corpus uses, so masking them
#: off recovers the output page.
PTE_AF = 1 << 20
PTE_DIRTY = 1 << 21
PTE_VALUE_MASK = PTE_AF - 1


def resolve_vm_features(cfg: ModelConfig) -> ModelConfig:
    """Fill ``cfg.vm_features`` from the environment when unset.

    An explicitly configured feature set always wins; the environment
    knob only upgrades the default-empty config, so programmatic callers
    (cross-checks, the verdict matrix) are immune to ambient state.
    """
    if cfg.vm_features:
        return cfg
    env = config.get("vm_features")
    if env:
        return replace(cfg, vm_features=env)
    return cfg


class ProgramCache:
    """Per-program precomputation shared by every exploration state."""

    def __init__(self, program: Program):
        self.program = program
        self.threads: Tuple[Thread, ...] = program.threads
        self.labels: List[Dict[str, int]] = [t.labels() for t in program.threads]
        self.initial_memory = dict(program.initial_memory)
        n = len(program.threads)
        self._promisable: List[Optional[List[bool]]] = [None] * n
        self._fulfillable: List[Optional[List[bool]]] = [None] * n
        self._panicky: List[Optional[List[bool]]] = [None] * n
        self._succs: List[Optional[List[Tuple[int, ...]]]] = [None] * n
        self._doomed: Optional[Tuple] = None
        self._panic_table: object = False  # not built yet
        self._awaits: Dict[bool, Optional[Tuple[Dict[int, int], ...]]] = {}
        self._symmetry: Optional[Tuple[Tuple[int, ...], ...]] = None

    def init_value(self, loc: int) -> int:
        return self.initial_memory.get(loc, 0)

    def instr_at(self, tidx: int, pc: int) -> Instruction:
        return self.threads[tidx].instrs[pc]

    def thread_len(self, tidx: int) -> int:
        return len(self.threads[tidx].instrs)

    def label_index(self, tidx: int, name: str) -> int:
        try:
            return self.labels[tidx][name]
        except KeyError:
            raise ProgramError(
                f"unknown label {name!r} in thread {self.threads[tidx].tid}"
            ) from None

    def promisable_from(self, tidx: int, pc: int) -> bool:
        """Can any plain (non-release) ``Store`` still execute from *pc*?

        Static control-flow reachability over the thread's instruction
        stream (branch targets are labels, hence static).  When False,
        the promise-candidate lookahead is provably empty — only plain
        ``Store`` instructions ever contribute candidates — so
        :func:`promise_steps` skips the whole nested search, and the
        candidate lookahead stops expanding such states: no candidate
        lies below them.
        """
        reach = self._promisable[tidx]
        if reach is None:
            reach = self._promisable[tidx] = self._reachable(
                tidx, _is_plain_store
            )
        return 0 <= pc < len(reach) and reach[pc]

    def fulfillable_from(self, tidx: int, pc: int) -> bool:
        """Can any instruction that may fulfil a promise still execute
        from *pc*?

        Only :func:`_exec_store`'s fulfil branch removes a promise, and
        it is entered by a plain ``Store`` and by a ``VStore`` (whose
        translated write is a plain store).  When False, a thread
        holding promises at *pc* can never shed them: the certification
        search stops there, and the explorer treats such a thread as
        doomed.
        """
        reach = self._fulfillable[tidx]
        if reach is None:
            reach = self._fulfillable[tidx] = self._reachable(
                tidx, _may_fulfil
            )
        return 0 <= pc < len(reach) and reach[pc]

    def panic_reachable_from(self, tidx: int, pc: int) -> bool:
        """Can a ``Panic`` instruction still execute from *pc*?"""
        reach = self._panicky[tidx]
        if reach is None:
            reach = self._panicky[tidx] = self._reachable(
                tidx, lambda instr: isinstance(instr, Panic)
            )
        return 0 <= pc < len(reach) and reach[pc]

    def doomed_tables(self) -> Tuple:
        """Lookup tables for the explorer's doomed-state filter.

        ``(holders, stuck, panicky)``, built once per exploration:
        ``holders`` are the threads that can reach a plain store, the
        only ones that can ever hold a promise; ``stuck[tidx][pc]`` says no
        fulfilling instruction is reachable from *pc*
        (:meth:`fulfillable_from`; the halted pc, the thread length, is
        stuck); ``panicky[tidx][pc]`` says a ``Panic`` is, and is None
        when no thread can reach one.
        """
        if self._doomed is None:
            n_threads = len(self.threads)
            # Seeded bug: ask one pc too far, so a promise whose last
            # fulfilling store is the current instruction looks doomed.
            skip = 1 if mutants.enabled("doomed-skips-current-store") else 0
            stuck = tuple(
                tuple(
                    not self.fulfillable_from(tidx, pc + skip)
                    for pc in range(self.thread_len(tidx) + 1)
                )
                for tidx in range(n_threads)
            )
            holders = tuple(
                tidx for tidx in range(n_threads)
                if self.promisable_from(tidx, 0)
            )
            self._doomed = (holders, stuck, self.panic_table())
        return self._doomed

    def panic_table(self) -> Optional[Tuple[Tuple[bool, ...], ...]]:
        """``[tidx][pc]``: can a ``Panic`` still execute from *pc* (the
        thread length, halted, cannot)?  None when no thread can reach
        one.  Built once."""
        if self._panic_table is False:
            n_threads = len(self.threads)
            table = None
            if any(
                self.panic_reachable_from(tidx, 0) for tidx in range(n_threads)
            ):
                table = tuple(
                    tuple(
                        self.panic_reachable_from(tidx, pc)
                        for pc in range(self.thread_len(tidx) + 1)
                    )
                    for tidx in range(n_threads)
                )
            self._panic_table = table
        return self._panic_table

    def await_backedges(
        self, pushpull: bool = False
    ) -> Optional[Tuple[Dict[int, int], ...]]:
        """Per thread, ``{branch pc: loop head pc}`` for every backward
        ``BranchIfZero``/``BranchIfNonZero`` that closes a *pure await
        loop*; None when no thread has one.  Built once per flag.

        A loop ``[head, branch]`` is pure when its body ``[head,
        branch)`` is entered only at ``head`` and holds only ``Label``,
        ``Nop``, ``Mov`` and ``Load`` (plain or acquire), and has no
        loop-carried register: every register the body reads is either
        never written in the body or written earlier in the same
        iteration (the branch condition runs after the whole body, so it
        always sees the current iteration).  A failed iteration then
        changes only registers the next iteration overwrites and the
        thread's views, which only restrict later steps, so the explorer
        may drop the taken back-edge and let the thread wait at the head
        instead (:func:`repro.memory.exploration.thread_steps`).

        Two more conditions keep panic behaviors exact.  A panic freezes
        a thread mid-iteration, with the registers the iteration has not
        rewritten yet still holding the previous iteration's values:
        so the body writes at most one observed register unless no other
        thread can panic, and under push/pull (*pushpull*) no body
        ``Load`` of a kernel thread may touch kernel memory, whose
        ownership check could panic a later iteration.
        """
        key = bool(pushpull)
        if key not in self._awaits:
            tables = tuple(
                self._await_loops(tidx, key) for tidx in range(len(self.threads))
            )
            self._awaits[key] = tables if any(tables) else None
        return self._awaits[key]

    def symmetry_groups(self) -> Tuple[Tuple[int, ...], ...]:
        """The groups of two or more interchangeable threads, as tuples
        of thread indices.  Built once.

        Two threads are interchangeable when their instruction lists are
        equal once labels are resolved to indices (so ``.spin_0_0`` and
        ``.spin_1_0`` match) and their ``observed`` registers and
        ``is_kernel`` flags are equal: the step relation then treats
        them alike except through their ``tid`` (see
        :func:`repro.memory.exploration.explore` for where the tid is
        read, and when the explorer therefore ignores these groups).
        Only threads of equal length are compared, so a program whose
        threads all differ in length builds no shape at all.
        """
        if self._symmetry is None:
            by_length: Dict[Tuple, List[int]] = {}
            for tidx, thread in enumerate(self.threads):
                by_length.setdefault(
                    (thread.is_kernel, thread.observed, len(thread.instrs)),
                    [],
                ).append(tidx)
            groups: List[Tuple[int, ...]] = []
            for candidates in by_length.values():
                if len(candidates) < 2:
                    continue
                shapes: List[Tuple] = []
                members: List[List[int]] = []
                for tidx in candidates:
                    shape = self._shape(tidx)
                    for rep, group in zip(shapes, members):
                        if rep == shape:
                            group.append(tidx)
                            break
                    else:
                        shapes.append(shape)
                        members.append([tidx])
                groups.extend(tuple(g) for g in members if len(g) > 1)
            self._symmetry = tuple(sorted(groups))
        return self._symmetry

    def _shape(self, tidx: int) -> Tuple:
        """Thread *tidx*'s instructions with label names erased and
        branch targets resolved to instruction indices."""
        labels = self.labels[tidx]
        instrs = self.threads[tidx].instrs
        n = len(instrs)
        shape: List[object] = []
        for instr in instrs:
            if isinstance(instr, Label):
                shape.append(Label)
            elif isinstance(instr, (Jump, BranchIfZero, BranchIfNonZero)):
                shape.append((
                    type(instr), getattr(instr, "cond", None),
                    labels.get(instr.target, n),
                ))
            else:
                shape.append(instr)
        return tuple(shape)

    def _await_loops(self, tidx: int, pushpull: bool) -> Dict[int, int]:
        thread = self.threads[tidx]
        instrs = thread.instrs
        labels = self.labels[tidx]
        backward = [
            (pc, labels[instr.target]) for pc, instr in enumerate(instrs)
            if isinstance(instr, (BranchIfZero, BranchIfNonZero))
            and labels.get(instr.target, pc + 1) < pc
        ]
        if not backward:
            return {}
        targets = {
            labels[instr.target] for instr in instrs
            if isinstance(instr, (Jump, BranchIfZero, BranchIfNonZero))
            and instr.target in labels
        }
        loops: Dict[int, int] = {}
        for pc, head in backward:
            if any(entry in targets for entry in range(head + 1, pc)):
                continue  # a second entry into the body
            body = instrs[head:pc]
            kernel_loads_panic = pushpull and thread.is_kernel
            written = _await_body_writes(body, kernel_loads_panic)
            if written is None:
                continue
            if len(written.intersection(thread.observed)) > 1 and (
                pushpull or any(
                    self.panic_reachable_from(other, 0)
                    for other in range(len(self.threads)) if other != tidx
                )
            ):
                continue
            loops[pc] = head
        return loops

    def control_successors(self, tidx: int) -> List[Tuple[int, ...]]:
        """Static control-flow successors of every pc of thread *tidx*.

        Branch targets are labels, hence static; a successor equal to
        the thread length means falling off the end (halting), and a
        ``Panic`` has none.
        """
        succs = self._succs[tidx]
        if succs is None:
            instrs = self.threads[tidx].instrs
            labels = self.labels[tidx]
            n = len(instrs)
            succs = []
            for pc, instr in enumerate(instrs):
                if isinstance(instr, Jump):
                    succs.append((labels.get(instr.target, n),))
                elif isinstance(instr, (BranchIfZero, BranchIfNonZero)):
                    succs.append((labels.get(instr.target, n), pc + 1))
                elif isinstance(instr, Panic):
                    succs.append(())
                else:
                    succs.append((pc + 1,))
            self._succs[tidx] = succs
        return succs

    def _reachable(
        self, tidx: int, pred: Callable[[Instruction], bool]
    ) -> List[bool]:
        """Per pc of thread *tidx*: can an instruction satisfying *pred*
        still execute from there (that pc included)?

        The one backward-reachability fixpoint over
        :meth:`control_successors`; falling off the end reaches nothing.
        """
        instrs = self.threads[tidx].instrs
        n = len(instrs)
        succs = self.control_successors(tidx)
        reach = [bool(pred(instr)) for instr in instrs]
        changed = True
        while changed:
            changed = False
            for pc in range(n - 1, -1, -1):
                if reach[pc]:
                    continue
                if any(s < n and reach[s] for s in succs[pc]):
                    reach[pc] = True
                    changed = True
        return reach


def _is_plain_store(instr: Instruction) -> bool:
    return isinstance(instr, Store) and not instr.release


def _may_fulfil(instr: Instruction) -> bool:
    return _is_plain_store(instr) or isinstance(instr, VStore)


def _await_body_writes(
    body: Sequence[Instruction], kernel_loads_panic: bool
) -> Optional[set]:
    """The registers a pure await-loop *body* writes, or None when the
    body is not pure (see :meth:`ProgramCache.await_backedges`).

    *kernel_loads_panic* rejects a ``Load`` of kernel memory, whose
    push/pull ownership check can panic.
    """
    # Seeded bug: accept stores and loop-carried registers.
    sloppy = mutants.enabled("await-loop-carried")
    body_writes = {
        instr.dst for instr in body if isinstance(instr, (Mov, Load))
    }
    written: set = set()
    for instr in body:
        if isinstance(instr, (Label, Nop)):
            continue
        if isinstance(instr, Mov):
            reads = instr.src.registers()
        elif isinstance(instr, Load):
            if kernel_loads_panic and instr.space is MemSpace.KERNEL:
                return None
            reads = instr.addr.registers()
        elif sloppy and isinstance(instr, Store):
            continue
        else:
            return None
        if not sloppy and any(
            reg in body_writes and reg not in written for reg in reads
        ):
            return None  # loop-carried
        written.add(instr.dst)
    return written


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------

def _regs_dict(ctx: ThreadCtx) -> Dict[str, int]:
    return dict(ctx.regs)


def _dep_view(ctx: ThreadCtx, expr: Expr) -> int:
    """The dependency view (max register view) feeding *expr*."""
    view = 0
    for reg in expr.registers():
        view = max(view, tget(ctx.rv, reg, 0))
    return view


def _advance(cache: ProgramCache, tidx: int, ctx: ThreadCtx, pc: int) -> ThreadCtx:
    # Positional construction: ~3x cheaper than NamedTuple._replace on
    # this hot path (one per executed instruction).
    return ThreadCtx(
        pc, pc >= cache.thread_len(tidx), ctx.regs, ctx.rv, ctx.coh,
        ctx.vrn, ctx.vwn, ctx.vro, ctx.vwo, ctx.vctrl, ctx.promises,
        ctx.monitor, ctx.wbuf,
    )


def _read_candidates(
    state: ExecState,
    cache: ProgramCache,
    cfg: ModelConfig,
    ctx: ThreadCtx,
    loc: int,
    addr_dep: int,
) -> List[Tuple[int, int]]:
    """Messages a thread's read of *loc* may return, as (ts, value).

    SC: only the latest write.  Promising: any write at or after the floor
    ``max(coh[loc], last-write-before(max(addr_dep, vrn)))`` — stale reads
    within coherence, the essence of relaxed behavior on multicopy-atomic
    Arm.  A thread never reads its own unfulfilled promise.
    """
    init = cache.init_value(loc)
    own = ctx.promises  # tiny tuple: membership beats building a frozenset
    if cfg.tso and ctx.wbuf and not mutants.enabled("read-skips-own-buffer"):
        # TSO store forwarding: a read returns the youngest buffered
        # write to the location when one exists — the thread sees its
        # own stores early, before any other agent does.  Other threads
        # never observe the buffer (the mandatory-forwarding rule of
        # x86-TSO / SPARC TSO); the returned timestamp is the current
        # memory-latest one, which under ``relaxed=False`` only feeds
        # bookkeeping views, never read choice.
        for bloc, bval in reversed(ctx.wbuf):
            if bloc == loc:
                return [(latest_write_ts(state.memory, loc), bval)]
    if not cfg.relaxed:
        ts = latest_write_ts(state.memory, loc)
        if ts in own:
            return []  # blocked: own promise is the latest write (SC: none)
        return [(ts, value_at(state.memory, loc, ts, init))]
    view_floor = max(addr_dep, ctx.vrn)
    floor = max(tget(ctx.coh, loc, 0), last_write_ts(state.memory, loc, view_floor))
    out: List[Tuple[int, int]] = []
    if floor == 0:
        out.append((0, init))
    for ts in range(max(floor, 1), len(state.memory) + 1):
        msg = state.memory[ts - 1]
        if msg.loc == loc and ts not in own:
            out.append((ts, msg.val))
    return out


def _walker_candidates(
    state: ExecState,
    cache: ProgramCache,
    cfg: ModelConfig,
    loc: int,
    cpu_tidx: int,
    stage2: bool = False,
) -> List[Tuple[int, int]]:
    """Values an MMU walker read of page-table location *loc* may see.

    The walker is an independent hardware agent: it has no thread views
    and may read stale entries, bounded below only by the global walker
    floor raised by barrier-ordered TLB invalidations.  It never observes
    its own CPU's unfulfilled promises (the CPU's page-table store has not
    architecturally happened for its own walker until fulfilled).

    ``stage2=True`` reads a stage-2 table entry, bounded by the separate
    ``s2_walker_floor`` (per-stage TLBI scope).  Under the ``bbm``
    feature, any live-to-live rewrite of the entry additionally keeps the
    overwritten value as a permanent candidate (amalgamation).
    """
    init = cache.init_value(loc)
    if not cfg.relaxed:
        ts = latest_write_ts(state.memory, loc)
        return [(ts, value_at(state.memory, loc, ts, init))]
    own = state.threads[cpu_tidx].promises
    floor_view = state.s2_walker_floor if stage2 else state.walker_floor
    floor = last_write_ts(state.memory, loc, floor_view)
    out: List[Tuple[int, int]] = []
    if floor == 0:
        out.append((0, init))
    for ts in range(max(floor, 1), len(state.memory) + 1):
        msg = state.memory[ts - 1]
        if msg.loc == loc and ts not in own:
            out.append((ts, msg.val))
    if not stage2 and "bbm" in cfg.vm_features:
        out = _bbm_amalgamate(state, cfg, loc, init, own, out)
    return out


def _bbm_amalgamate(
    state: ExecState,
    cfg: ModelConfig,
    loc: int,
    init: int,
    own: Tuple[int, ...],
    out: List[Tuple[int, int]],
) -> List[Tuple[int, int]]:
    """Add permanently-poisoned candidates for break-before-make breaks.

    Arm leaves the result of changing a live (valid) translation entry
    directly to a different live value CONSTRAINED UNPREDICTABLE: TLBs
    may have formed an amalgam of the two entries, and no later TLBI is
    guaranteed to expel it.  The model reads that as: for every adjacent
    live-to-live pair in the entry's write history, the overwritten value
    stays a walker candidate forever — no floor clears it.  An honest
    break-before-make sequence interposes the invalid (0) entry between
    the two live values and is unaffected.
    """
    history: List[Tuple[int, int]] = [(0, init)]
    for ts in range(1, len(state.memory) + 1):
        msg = state.memory[ts - 1]
        if msg.loc == loc and ts not in own:
            history.append((ts, msg.val))
    had = "had" in cfg.vm_features
    mask = PTE_VALUE_MASK if had else -1
    extra: Dict[int, int] = {}
    for (ts0, v0), (_ts1, v1) in zip(history, history[1:]):
        if (v0 & mask) != 0 and (v1 & mask) != 0 and v0 != v1:
            extra[ts0] = v0
    if not extra:
        return out
    seen_ts = {ts for ts, _ in out}
    merged = out + [(ts, v) for ts, v in extra.items() if ts not in seen_ts]
    merged.sort()
    return merged


def _panic_state(state: ExecState, reason: str) -> ExecState:
    return state._replace(panic=reason)


class CpuPanic(str):
    """A push/pull panic reason that names CPUs.

    Every such reason is built here, from one of :attr:`FORMATS` and the
    acting CPU's tid, the location and (where the format has one) the
    owner's tid.  The instance keeps those arguments, so :meth:`renamed`
    rebuilds the text under a CPU renaming exactly, with no parsing.  It
    compares and hashes as its text.  A ``Panic`` instruction's reason
    is a plain ``str`` and is never renamed, whatever it says.
    """

    FORMATS = {
        "owned-access": "DRF violation: CPU {cpu} accessed location "
                        "{loc:#x} owned by CPU {owner}",
        "unpulled-access": "DRF violation: CPU {cpu} accessed shared "
                           "location {loc:#x} without pulling it",
        "owned-pull": "push/pull violation: CPU {cpu} pulled location "
                      "{loc:#x} owned by CPU {owner}",
        "unfenced-transfer": "No-Barrier-Misuse violation: CPU {cpu} "
                             "pulled location {loc:#x} without a barrier "
                             "covering the owner's accesses",
        "unfenced-pull": "No-Barrier-Misuse violation: CPU {cpu} pulled "
                         "location {loc:#x} without a barrier covering "
                         "its last push",
        "unowned-push": "push/pull violation: CPU {cpu} pushed location "
                        "{loc:#x} it does not own (owner: {owner})",
    }

    def __new__(
        cls, kind: str, cpu: int, loc: int, owner: Optional[int] = None
    ) -> "CpuPanic":
        self = super().__new__(
            cls, cls.FORMATS[kind].format(cpu=cpu, loc=loc, owner=owner)
        )
        self.fields = (kind, cpu, loc, owner)
        return self

    def __reduce__(self):
        return (CpuPanic, self.fields)

    def renamed(self, remap: Dict[int, int]) -> "CpuPanic":
        """The same reason with every CPU tid mapped through *remap*."""
        kind, cpu, loc, owner = self.fields
        return CpuPanic(kind, remap[cpu], loc, remap.get(owner, owner))


def rename_panic(reason: Optional[str], remap: Dict[int, int]) -> Optional[str]:
    """*reason* with its CPU tids mapped through *remap* when it is a
    :class:`CpuPanic`; any other reason (or None) unchanged."""
    if type(reason) is CpuPanic:
        return reason.renamed(remap)
    return reason


def _ownership_check(
    state: ExecState,
    cfg: ModelConfig,
    thread: Thread,
    space: MemSpace,
    loc: int,
    is_write: bool,
) -> Optional[str]:
    """Push/pull access discipline; returns a panic reason or None.

    Only kernel threads' data accesses are checked: synchronization
    variables, page-table memory, and user memory are exactly the
    exemptions the wDRF conditions carve out of DRF-Kernel.
    """
    if not cfg.pushpull or not thread.is_kernel:
        return None
    if space is not MemSpace.KERNEL:
        return None
    owner = tget(state.ownership, loc, None)
    if owner is not None and owner != thread.tid:
        return CpuPanic("owned-access", thread.tid, loc, owner)
    if loc in cfg.owned_access_required and owner != thread.tid:
        return CpuPanic("unpulled-access", thread.tid, loc)
    return None


# ---------------------------------------------------------------------------
# instruction execution
# ---------------------------------------------------------------------------

def execute_instruction(
    cache: ProgramCache,
    state: ExecState,
    tidx: int,
    cfg: ModelConfig,
) -> List[ExecState]:
    """All successor states from thread *tidx* executing its next
    instruction (one state per nondeterministic choice)."""
    ctx = state.threads[tidx]
    if ctx.halted or state.panic is not None:
        return []
    if ctx.pc >= cache.thread_len(tidx):
        # Normalize an (initially) empty or exhausted thread to halted.
        return [state.with_thread(tidx, ctx._replace(halted=True))]
    thread = cache.threads[tidx]
    instr = cache.instr_at(tidx, ctx.pc)

    # Register-free instructions first: no regs dict to materialize.
    if isinstance(instr, (Label, Nop)):
        return [state.with_thread(tidx, _advance(cache, tidx, ctx, ctx.pc + 1))]

    if isinstance(instr, Barrier):
        if (
            cfg.tso
            and ctx.wbuf
            and instr.kind in (BarrierKind.FULL, BarrierKind.ST)
        ):
            # TSO fences order stores with later accesses by waiting for
            # the buffer to drain (flush steps empty it one write at a
            # time, so every interleaving with other threads' steps is
            # still reachable).  Load-only barriers and ISB never
            # interact with the buffer.
            return []
        new = _apply_barrier(ctx, instr.kind)
        if tracer.SINK is not None:
            tracer.SINK.emit(
                tracer.BARRIER, tid=thread.tid, barrier=instr.kind.name,
                pc=ctx.pc,
            )
            if new.vrn != ctx.vrn or new.vwn != ctx.vwn:
                tracer.SINK.emit(
                    tracer.VIEW_ADVANCE, tid=thread.tid,
                    vrn=(ctx.vrn, new.vrn), vwn=(ctx.vwn, new.vwn),
                )
        return [state.with_thread(tidx, _advance(cache, tidx, new, ctx.pc + 1))]

    if isinstance(instr, Jump):
        target = cache.label_index(tidx, instr.target)
        return [state.with_thread(tidx, _advance(cache, tidx, ctx, target))]

    if isinstance(instr, Panic):
        return [_panic_state(state, instr.reason)]

    regs = _regs_dict(ctx)

    if isinstance(instr, Mov):
        value = instr.src.eval(regs)
        pc1 = ctx.pc + 1
        new = ThreadCtx(
            pc1, pc1 >= cache.thread_len(tidx),
            tset(ctx.regs, instr.dst, value),
            tset(ctx.rv, instr.dst, _dep_view(ctx, instr.src)),
            ctx.coh, ctx.vrn, ctx.vwn, ctx.vro, ctx.vwo, ctx.vctrl,
            ctx.promises, ctx.monitor, ctx.wbuf,
        )
        return [state.with_thread(tidx, new)]

    if isinstance(instr, Load):
        return _exec_load(cache, state, tidx, cfg, instr, regs)

    if isinstance(instr, Store):
        return _exec_store(cache, state, tidx, cfg, instr, regs)

    if isinstance(instr, FetchAndInc):
        return _exec_faa(cache, state, tidx, cfg, instr, regs)

    if isinstance(instr, CompareAndSwap):
        return _exec_cas(cache, state, tidx, cfg, instr, regs)

    if isinstance(instr, LoadExclusive):
        return _exec_ldxr(cache, state, tidx, cfg, instr, regs)

    if isinstance(instr, StoreExclusive):
        return _exec_stxr(cache, state, tidx, cfg, instr, regs)

    if isinstance(instr, (BranchIfZero, BranchIfNonZero)):
        cond = instr.cond.eval(regs)
        taken = (cond == 0) if isinstance(instr, BranchIfZero) else (cond != 0)
        target = cache.label_index(tidx, instr.target) if taken else ctx.pc + 1
        new = ctx._replace(vctrl=max(ctx.vctrl, _dep_view(ctx, instr.cond)))
        return [state.with_thread(tidx, _advance(cache, tidx, new, target))]

    if isinstance(instr, VLoad):
        return _exec_virtual(cache, state, tidx, cfg, instr, regs, is_store=False)

    if isinstance(instr, VStore):
        return _exec_virtual(cache, state, tidx, cfg, instr, regs, is_store=True)

    if isinstance(instr, TLBInvalidate):
        return _exec_tlbi(cache, state, tidx, cfg, instr, regs)

    if isinstance(instr, Pull):
        return _exec_pull(cache, state, tidx, cfg, instr, regs)

    if isinstance(instr, Push):
        return _exec_push(cache, state, tidx, cfg, instr, regs)

    if isinstance(instr, OracleRead):
        out = []
        adep = _dep_view(ctx, instr.addr)
        for choice in instr.choices:
            new = ctx._replace(
                regs=tset(ctx.regs, instr.dst, choice),
                rv=tset(ctx.rv, instr.dst, adep),
            )
            out.append(state.with_thread(tidx, _advance(cache, tidx, new, ctx.pc + 1)))
        return out

    raise ExecutionError(f"unhandled instruction {instr!r}")


def _exec_load(cache, state, tidx, cfg, instr: Load, regs) -> List[ExecState]:
    ctx = state.threads[tidx]
    thread = cache.threads[tidx]
    loc = instr.addr.eval(regs)
    reason = _ownership_check(state, cfg, thread, instr.space, loc, is_write=False)
    if reason is not None:
        return [_panic_state(state, reason)]
    adep = _dep_view(ctx, instr.addr)
    pc1 = ctx.pc + 1
    halted = pc1 >= cache.thread_len(tidx)
    dst = instr.dst
    coh0 = tget(ctx.coh, loc, 0)
    acquire = instr.acquire
    out: List[ExecState] = []
    for ts, val in _read_candidates(state, cache, cfg, ctx, loc, adep):
        vrn, vwn = ctx.vrn, ctx.vwn
        if acquire:
            vrn = max(vrn, ts)
            vwn = max(vwn, ts)
        new = ThreadCtx(
            pc1, halted,
            tset(ctx.regs, dst, val),
            tset(ctx.rv, dst, max(adep, ts)),
            tset(ctx.coh, loc, max(coh0, ts)),
            vrn, vwn,
            max(ctx.vro, ts),
            ctx.vwo, ctx.vctrl, ctx.promises, ctx.monitor, ctx.wbuf,
        )
        out.append(state.with_thread(tidx, new))
    return out


def _store_floor(ctx: ThreadCtx, loc: int, dep: int, release: bool) -> int:
    floor = max(tget(ctx.coh, loc, 0), ctx.vwn, dep, ctx.vctrl)
    if release:
        floor = max(floor, ctx.vro, ctx.vwo)
    return floor


def _exec_store(cache, state, tidx, cfg, instr: Store, regs) -> List[ExecState]:
    ctx = state.threads[tidx]
    thread = cache.threads[tidx]
    loc = instr.addr.eval(regs)
    val = instr.value.eval(regs)
    reason = _ownership_check(state, cfg, thread, instr.space, loc, is_write=True)
    if reason is not None:
        return [_panic_state(state, reason)]
    dep = max(_dep_view(ctx, instr.addr), _dep_view(ctx, instr.value))
    floor = _store_floor(ctx, loc, dep, instr.release)
    pc1 = ctx.pc + 1
    halted = pc1 >= cache.thread_len(tidx)
    out: List[ExecState] = []

    if cfg.tso:
        if instr.release:
            # A release store publishes: it waits for the buffer to
            # drain (flush steps empty it) and then writes to memory
            # directly — the x86 mapping of a releasing store followed
            # by the buffer discipline, strictly stronger than a plain
            # buffered store (stronger-is-safe for TSO ⊆ Arm).
            if ctx.wbuf:
                return []
            ts = len(state.memory) + 1
            new_state = state.append_message(
                Message(ts, loc, val, thread.tid, False)
            )
            new_ctx = ThreadCtx(
                pc1, halted, ctx.regs, ctx.rv,
                tset(ctx.coh, loc, ts),
                ctx.vrn, ctx.vwn, ctx.vro,
                max(ctx.vwo, ts),
                ctx.vctrl, ctx.promises, ctx.monitor, ctx.wbuf,
            )
            return [new_state.with_thread(tidx, new_ctx)]
        # Plain TSO store: enqueue on the FIFO store buffer.  The write
        # becomes globally visible only when a later flush step (see
        # :func:`tso_flush_steps`) pops it into the timeline.
        new_ctx = ThreadCtx(
            pc1, halted, ctx.regs, ctx.rv, ctx.coh,
            ctx.vrn, ctx.vwn, ctx.vro, ctx.vwo,
            ctx.vctrl, ctx.promises, ctx.monitor,
            ctx.wbuf + ((loc, val),),
        )
        return [state.with_thread(tidx, new_ctx)]

    # Option 1: append a fresh message at the end of the timeline.
    ts = len(state.memory) + 1
    new_state = state.append_message(Message(ts, loc, val, thread.tid, False))
    new_ctx = ThreadCtx(
        pc1, halted, ctx.regs, ctx.rv,
        tset(ctx.coh, loc, ts),
        ctx.vrn, ctx.vwn, ctx.vro,
        max(ctx.vwo, ts),
        ctx.vctrl, ctx.promises, ctx.monitor, ctx.wbuf,
    )
    out.append(new_state.with_thread(tidx, new_ctx))

    # Option 2: fulfill one of this thread's outstanding promises.
    if not instr.release:
        for p in ctx.promises:
            msg = state.memory[p - 1]
            if msg.loc == loc and msg.val == val and p > floor:
                fulfilled = state.fulfill(p)
                new_ctx = ThreadCtx(
                    pc1, halted, ctx.regs, ctx.rv,
                    tset(ctx.coh, loc, max(tget(ctx.coh, loc, 0), p)),
                    ctx.vrn, ctx.vwn, ctx.vro,
                    max(ctx.vwo, p),
                    ctx.vctrl,
                    tuple(q for q in ctx.promises if q != p),
                    ctx.monitor, ctx.wbuf,
                )
                succ = fulfilled.with_thread(tidx, new_ctx)
                if not (succ.threads[tidx].halted and succ.threads[tidx].promises):
                    out.append(succ)
    # Halting with unfulfilled promises is not a valid execution.
    out = [
        s
        for s in out
        if not (s.threads[tidx].halted and s.threads[tidx].promises)
    ]
    return out


def _exec_faa(cache, state, tidx, cfg, instr: FetchAndInc, regs) -> List[ExecState]:
    ctx = state.threads[tidx]
    thread = cache.threads[tidx]
    loc = instr.addr.eval(regs)
    reason = _ownership_check(state, cfg, thread, instr.space, loc, is_write=True)
    if reason is not None:
        return [_panic_state(state, reason)]
    if cfg.tso and ctx.wbuf:
        return []  # TSO: a locked RMW waits for the store buffer to drain
    adep = _dep_view(ctx, instr.addr)
    ts_last = latest_write_ts(state.memory, loc)
    if ts_last in ctx.promises:
        return []  # blocked behind own unfulfilled promise
    old = value_at(state.memory, loc, ts_last, cache.init_value(loc))
    ts_new = len(state.memory) + 1
    new_state = state.append_message(
        Message(ts_new, loc, old + instr.amount, thread.tid, False)
    )
    new_ctx = ctx._replace(
        regs=tset(ctx.regs, instr.dst, old),
        rv=tset(ctx.rv, instr.dst, max(adep, ts_last)),
        coh=tset(ctx.coh, loc, ts_new),
        vro=max(ctx.vro, ts_last),
        vwo=max(ctx.vwo, ts_new),
    )
    if instr.acquire:
        new_ctx = new_ctx._replace(
            vrn=max(new_ctx.vrn, ts_last), vwn=max(new_ctx.vwn, ts_last)
        )
    succ = new_state.with_thread(tidx, _advance(cache, tidx, new_ctx, ctx.pc + 1))
    if succ.threads[tidx].halted and succ.threads[tidx].promises:
        return []
    return [succ]


def _exec_cas(
    cache, state, tidx, cfg, instr: CompareAndSwap, regs
) -> List[ExecState]:
    """Atomic compare-and-swap: reads the coherence-latest value and,
    on a match, appends the new value adjacently (like the RMW)."""
    ctx = state.threads[tidx]
    thread = cache.threads[tidx]
    loc = instr.addr.eval(regs)
    reason = _ownership_check(state, cfg, thread, instr.space, loc, is_write=True)
    if reason is not None:
        return [_panic_state(state, reason)]
    if cfg.tso and ctx.wbuf:
        return []  # TSO: a locked RMW waits for the store buffer to drain
    adep = _dep_view(ctx, instr.addr)
    vdep = max(_dep_view(ctx, instr.expected), _dep_view(ctx, instr.desired))
    ts_last = latest_write_ts(state.memory, loc)
    if ts_last in ctx.promises:
        return []  # blocked behind own unfulfilled promise
    old = value_at(state.memory, loc, ts_last, cache.init_value(loc))
    expected = instr.expected.eval(regs)
    desired = instr.desired.eval(regs)

    new_ctx = ctx._replace(
        regs=tset(ctx.regs, instr.dst, old),
        rv=tset(ctx.rv, instr.dst, max(adep, vdep, ts_last)),
        vro=max(ctx.vro, ts_last),
        coh=tset(ctx.coh, loc, max(tget(ctx.coh, loc, 0), ts_last)),
    )
    new_state = state
    if old == expected:
        ts_new = len(state.memory) + 1
        new_state = state.append_message(
            Message(ts_new, loc, desired, thread.tid, False)
        )
        new_ctx = new_ctx._replace(
            coh=tset(new_ctx.coh, loc, ts_new),
            vwo=max(new_ctx.vwo, ts_new),
        )
    if instr.acquire:
        new_ctx = new_ctx._replace(
            vrn=max(new_ctx.vrn, ts_last), vwn=max(new_ctx.vwn, ts_last)
        )
    succ = new_state.with_thread(tidx, _advance(cache, tidx, new_ctx, ctx.pc + 1))
    if succ.threads[tidx].halted and succ.threads[tidx].promises:
        return []
    return [succ]


def _exec_ldxr(
    cache, state, tidx, cfg, instr: LoadExclusive, regs
) -> List[ExecState]:
    """Load-exclusive: an ordinary (possibly stale) read that also arms
    the exclusive monitor with the observed write's timestamp."""
    ctx = state.threads[tidx]
    thread = cache.threads[tidx]
    loc = instr.addr.eval(regs)
    reason = _ownership_check(state, cfg, thread, instr.space, loc, is_write=False)
    if reason is not None:
        return [_panic_state(state, reason)]
    if cfg.tso and ctx.wbuf:
        # TSO has no native LL/SC; the exclusive pair is a locked
        # primitive, so it too waits for the store buffer to drain —
        # the monitor must be armed with a real memory timestamp.
        return []
    adep = _dep_view(ctx, instr.addr)
    pc1 = ctx.pc + 1
    halted = pc1 >= cache.thread_len(tidx)
    coh0 = tget(ctx.coh, loc, 0)
    out: List[ExecState] = []
    for ts, val in _read_candidates(state, cache, cfg, ctx, loc, adep):
        vrn, vwn = ctx.vrn, ctx.vwn
        if instr.acquire:
            vrn = max(vrn, ts)
            vwn = max(vwn, ts)
        new = ThreadCtx(
            pc1, halted,
            tset(ctx.regs, instr.dst, val),
            tset(ctx.rv, instr.dst, max(adep, ts)),
            tset(ctx.coh, loc, max(coh0, ts)),
            vrn, vwn,
            max(ctx.vro, ts),
            ctx.vwo, ctx.vctrl, ctx.promises,
            (loc, ts), ctx.wbuf,
        )
        out.append(state.with_thread(tidx, new))
    return out


def _exec_stxr(
    cache, state, tidx, cfg, instr: StoreExclusive, regs
) -> List[ExecState]:
    """Store-exclusive: succeeds (status 0) only if the monitored write
    is still the coherence-latest for the location — i.e. no intervening
    write — making the LL/SC pair atomic."""
    ctx = state.threads[tidx]
    thread = cache.threads[tidx]
    loc = instr.addr.eval(regs)
    reason = _ownership_check(state, cfg, thread, instr.space, loc, is_write=True)
    if reason is not None:
        return [_panic_state(state, reason)]
    if cfg.tso and ctx.wbuf:
        return []  # TSO: a locked RMW waits for the store buffer to drain
    val = instr.value.eval(regs)
    monitored = ctx.monitor if ctx.monitor and ctx.monitor[0] == loc else None
    success = (
        monitored is not None
        and latest_write_ts(state.memory, loc) == monitored[1]
    )
    if success:
        ts_new = len(state.memory) + 1
        new_state = state.append_message(
            Message(ts_new, loc, val, thread.tid, False)
        )
        new_ctx = ctx._replace(
            regs=tset(ctx.regs, instr.status, 0),
            rv=tset(ctx.rv, instr.status, 0),
            coh=tset(ctx.coh, loc, ts_new),
            vwo=max(ctx.vwo, ts_new),
            monitor=(),
        )
    else:
        new_state = state
        new_ctx = ctx._replace(
            regs=tset(ctx.regs, instr.status, 1),
            rv=tset(ctx.rv, instr.status, 0),
            monitor=(),
        )
    succ = new_state.with_thread(tidx, _advance(cache, tidx, new_ctx, ctx.pc + 1))
    if succ.threads[tidx].halted and succ.threads[tidx].promises:
        return []
    return [succ]


def _apply_barrier(ctx: ThreadCtx, kind: BarrierKind) -> ThreadCtx:
    if kind is BarrierKind.FULL:
        if mutants.enabled("weaken-barrier-full"):  # seeded bug class
            return ctx
        frontier = max(ctx.vro, ctx.vwo)
        return ctx._replace(vrn=max(ctx.vrn, frontier), vwn=max(ctx.vwn, frontier))
    if kind is BarrierKind.LD:
        return ctx._replace(vrn=max(ctx.vrn, ctx.vro), vwn=max(ctx.vwn, ctx.vro))
    if kind is BarrierKind.ST:
        return ctx._replace(vwn=max(ctx.vwn, ctx.vwo))
    if kind is BarrierKind.ISB:
        return ctx._replace(vrn=max(ctx.vrn, ctx.vctrl))
    raise ExecutionError(f"unknown barrier kind {kind!r}")


def tso_flush_steps(
    cache: ProgramCache,
    state: ExecState,
    tidx: int,
    cfg: ModelConfig,
) -> List[ExecState]:
    """The internal TSO step: thread *tidx*'s store buffer flushes its
    oldest write into memory.

    Flushes are nondeterministic hardware steps, so they are generated
    alongside instruction steps by every search loop (the explorer's
    ``_successors``, the traced search) — including
    for *halted* threads, whose leftover buffered writes must still
    reach memory before the execution can terminate.  One write per
    step keeps every interleaving with other threads reachable.
    """
    if not cfg.tso or state.panic is not None:
        return []
    ctx = state.threads[tidx]
    if not ctx.wbuf:
        return []
    (loc, val), rest = ctx.wbuf[0], ctx.wbuf[1:]
    if mutants.enabled("lost-flush"):  # seeded bug class
        return [state.with_thread(tidx, ctx._replace(wbuf=rest))]
    ts = len(state.memory) + 1
    new_state = state.append_message(
        Message(ts, loc, val, cache.threads[tidx].tid, False)
    )
    new_ctx = ctx._replace(
        wbuf=rest,
        coh=tset(ctx.coh, loc, ts),
        vwo=max(ctx.vwo, ts),
    )
    return [new_state.with_thread(tidx, new_ctx)]


# ---------------------------------------------------------------------------
# virtual memory (MMU walker + TLB)
# ---------------------------------------------------------------------------

def _translations(
    cache: ProgramCache,
    state: ExecState,
    tidx: int,
    cfg: ModelConfig,
    vpn: int,
) -> List[Tuple[Optional[int], Optional[int], ExecState]]:
    """All translation outcomes for *vpn* on thread *tidx*'s CPU.

    Returns ``(ppage, leaf_loc, state)`` triples; ``ppage=None`` is a
    translation fault.  Outcomes include a TLB hit (if an entry exists)
    and every combination of stale/fresh walker reads; a successful walk
    refills the TLB.  ``leaf_loc`` — the physical location of the stage-1
    leaf entry the translation came through — is only tracked under the
    ``had`` feature (it is the target of the hardware access/dirty-bit
    update) and stays ``None`` otherwise, so flag-off deduplication is
    exactly the seed's.
    """
    mmu = cache.program.mmu
    if mmu is None:
        raise ExecutionError("virtual access in a program with no MMUConfig")
    thread = cache.threads[tidx]
    feats = cfg.vm_features
    had = "had" in feats
    use_wc = "walk-cache" in feats and cfg.relaxed
    s2_root = mmu.stage2_root if "stage2" in feats else None
    val_mask = PTE_VALUE_MASK if had else -1
    results: List[Tuple[Optional[int], Optional[int], ExecState]] = []

    cached = tget(state.tlb, (thread.tid, vpn), None)
    if cached is not None:
        if had:
            results.append((cached[0], cached[1], state))
        else:
            results.append((cached, None, state))

    # Hardware walk (also models eviction: taken even when an entry exists).
    mask = (1 << mmu.va_bits_per_level) - 1

    def s2_resolve(ipa: int, st: ExecState, cont) -> None:
        """Stage-2 translate *ipa* (a table address or output page) and
        feed each resulting physical address to *cont*; a zero stage-2
        entry is a stage-2 fault.  Pass-through when stage 2 is off."""
        if s2_root is None:
            cont(ipa, st)
            return
        s2_entry_loc = s2_root + ipa
        for _ts, entry in _walker_candidates(
            st, cache, cfg, s2_entry_loc, tidx, stage2=True
        ):
            if entry & val_mask == 0:
                results.append((None, None, st))
            else:
                cont(entry & val_mask, st)

    def consume(level: int, entry_loc: int, entry: int, st: ExecState) -> None:
        """Interpret one stage-1 descriptor read at *entry_loc*."""
        val = entry & val_mask
        if val == 0:
            results.append((None, None, st))
        elif level + 1 == mmu.levels:
            def leaf_done(ppage: int, st2: ExecState) -> None:
                tlb_val = (ppage, entry_loc) if had else ppage
                refilled = st2._replace(
                    tlb=tset(st2.tlb, (thread.tid, vpn), tlb_val)
                )
                results.append(
                    (ppage, entry_loc if had else None, refilled)
                )

            s2_resolve(val, st, leaf_done)
        else:
            walk(level + 1, val, st)

    def walk(level: int, table_loc: int, st: ExecState) -> None:
        shift = mmu.va_bits_per_level * (mmu.levels - 1 - level)
        entry_ipa = table_loc + ((vpn >> shift) & mask)

        def read_entry(entry_loc: int, st1: ExecState) -> None:
            is_leaf = level + 1 == mmu.levels
            if use_wc and not is_leaf:
                cached_entry = tget(
                    st1.walk_cache, (thread.tid, entry_loc), None
                )
                if cached_entry is not None:
                    consume(level, entry_loc, cached_entry, st1)
            for _ts, entry in _walker_candidates(
                st1, cache, cfg, entry_loc, tidx
            ):
                st2 = st1
                if use_wc and not is_leaf:
                    st2 = st1._replace(
                        walk_cache=tset(
                            st1.walk_cache, (thread.tid, entry_loc), entry
                        )
                    )
                consume(level, entry_loc, entry, st2)

        s2_resolve(entry_ipa, st, read_entry)

    walk(0, mmu.root, state)
    # Deduplicate identical outcomes (stale choices often coincide).
    seen = set()
    unique: List[Tuple[Optional[int], Optional[int], ExecState]] = []
    for ppage, leaf_loc, st in results:
        key = (ppage, leaf_loc, st)
        if key not in seen:
            seen.add(key)
            unique.append((ppage, leaf_loc, st))
    return unique


def _hw_ad_update(
    cache: ProgramCache,
    state: ExecState,
    tidx: int,
    cfg: ModelConfig,
    leaf_loc: int,
    is_store: bool,
) -> ExecState:
    """Hardware access/dirty-bit update: a walker-originated atomic RMW.

    On a successful translation the walker ORs :data:`PTE_AF` (and
    :data:`PTE_DIRTY` for stores) into the stage-1 leaf entry, appending
    an ordinary coherence-participating message authored by the
    translating CPU — but updating no thread views, because the CPU's
    instruction stream never observed the write.  Skipped when the entry
    is currently invalid (broken concurrently), already carries the bits,
    or its latest write is this CPU's own unfulfilled promise.
    """
    ts_last = latest_write_ts(state.memory, leaf_loc)
    if ts_last in state.threads[tidx].promises:
        return state
    cur = value_at(state.memory, leaf_loc, ts_last, cache.init_value(leaf_loc))
    if cur & PTE_VALUE_MASK == 0:
        return state
    bits = PTE_AF
    if is_store and not mutants.enabled("lost-dirty-bit"):
        bits |= PTE_DIRTY
    if cur & bits == bits:
        return state
    ts = len(state.memory) + 1
    if tracer.SINK is not None:
        tracer.SINK.emit(
            tracer.WALKER_AD_WRITE, tid=cache.threads[tidx].tid,
            loc=leaf_loc, bits=bits, ts=ts,
        )
    return state.append_message(
        Message(ts, leaf_loc, cur | bits, cache.threads[tidx].tid, False)
    )


def _exec_virtual(
    cache, state, tidx, cfg, instr, regs, is_store: bool
) -> List[ExecState]:
    ctx = state.threads[tidx]
    thread = cache.threads[tidx]
    vpn = instr.vaddr.eval(regs)
    out: List[ExecState] = []
    for ppage, leaf_loc, st in _translations(cache, state, tidx, cfg, vpn):
        if ppage is None:
            faulted = st._replace(faults=st.faults + (Fault(thread.tid, vpn),))
            halted_ctx = st.threads[tidx]._replace(halted=True)
            if halted_ctx.promises:
                continue  # faulting with unfulfilled promises: invalid
            out.append(faulted.with_thread(tidx, halted_ctx))
            continue
        if leaf_loc is not None:
            st = _hw_ad_update(cache, st, tidx, cfg, leaf_loc, is_store)
        if is_store:
            phys = Store(
                addr=_const(ppage), value=instr.value, space=instr.space
            )
            out.extend(_exec_store(cache, st, tidx, cfg, phys, regs))
        else:
            phys = Load(dst=instr.dst, addr=_const(ppage), space=instr.space)
            out.extend(_exec_load(cache, st, tidx, cfg, phys, regs))
    return out


def _const(value: int):
    from repro.ir.expr import Imm

    return Imm(value)


def _exec_tlbi(cache, state, tidx, cfg, instr: TLBInvalidate, regs) -> List[ExecState]:
    ctx = state.threads[tidx]
    vpn = instr.vaddr.eval(regs) if instr.vaddr is not None else None
    tlb = tuple(
        ((cpu, entry_vpn), ppage)
        for (cpu, entry_vpn), ppage in state.tlb
        if vpn is not None and entry_vpn != vpn
    )
    # Per-stage scope: stage=None invalidates both stages; stage=1/2
    # raises only the matching walker floor.  The combined leaf TLB drops
    # on a vpn match regardless of stage (a cached leaf translation folds
    # both stages together, so either stage's TLBI must expel it).
    drop_s1 = instr.stage in (None, 1)
    drop_s2 = instr.stage in (None, 2)
    # A TLBI forces walkers to observe every prior store that this CPU has
    # *ordered* (covered by its write frontier).  Without a barrier between
    # the page-table store and the TLBI, vwn does not cover the store and
    # walkers may keep reading the stale entry — Example 6.
    floor = state.walker_floor
    if cfg.relaxed and drop_s1:
        floor = max(floor, ctx.vwn)
    s2_floor = state.s2_walker_floor
    if cfg.relaxed and drop_s2 and "stage2" in cfg.vm_features:
        s2_floor = max(s2_floor, ctx.vwn)
    walk_cache = state.walk_cache
    if (
        walk_cache
        and drop_s1
        and not instr.leaf_only
        and not mutants.enabled("stale-intermediate-walk")
    ):
        # A non-leaf-scoped stage-1 TLBI expels cached intermediate walk
        # entries too; a ``leaf_only`` TLBI leaves them live — the stale
        # intermediate-descriptor behavior of the ``walk-cache`` feature.
        walk_cache = ()
    if tracer.SINK is not None:
        tracer.SINK.emit(
            tracer.TLB_INVALIDATE, tid=cache.threads[tidx].tid, vpn=vpn,
            walker_floor=(state.walker_floor, floor),
        )
    new_state = state._replace(
        tlb=tlb, walker_floor=floor, walk_cache=walk_cache,
        s2_walker_floor=s2_floor,
    )
    return [new_state.with_thread(tidx, _advance(cache, tidx, ctx, ctx.pc + 1))]


# ---------------------------------------------------------------------------
# push/pull ownership primitives
# ---------------------------------------------------------------------------

def _owner_releases_without_access(
    cache: ProgramCache, state: ExecState, owner_idx: int, loc: int
) -> bool:
    """Will the current owner push *loc* without touching it again?

    Structural scan of the owner's remaining instruction stream: if a
    ``Push`` covering *loc* appears before any (potential) access to
    *loc*, the owner has logically finished with the location — its push
    promise is already implied, and an early transfer to a puller that
    observed the (promoted) unlock write is architecturally sound.
    Unknown (register-dependent) addresses are conservatively treated as
    accesses.
    """
    from repro.ir.expr import Imm

    ctx = state.threads[owner_idx]
    for instr in cache.threads[owner_idx].instrs[ctx.pc:]:
        if isinstance(instr, Push):
            for expr in instr.locs:
                if isinstance(expr, Imm) and expr.value == loc:
                    return True
        elif isinstance(instr, (Load, Store, FetchAndInc)):
            addr = instr.addr
            if not isinstance(addr, Imm) or addr.value == loc:
                return False
        elif isinstance(instr, (VLoad, VStore)):
            return False  # translated target unknown: conservative
    return False


def _exec_pull(cache, state, tidx, cfg, instr: Pull, regs) -> List[ExecState]:
    ctx = state.threads[tidx]
    thread = cache.threads[tidx]
    if not cfg.pushpull:
        return [state.with_thread(tidx, _advance(cache, tidx, ctx, ctx.pc + 1))]
    ownership = state.ownership
    pending = state.pending_release
    push_ts = state.push_ts
    for expr in instr.locs:
        loc = expr.eval(regs)
        owner = tget(ownership, loc, None)
        if owner is not None:
            # The owner may have *promised* its push: its unlock write
            # became visible (and was legitimately observed by this
            # puller) before the Push pseudo-instruction executed.  That
            # is sound exactly when the owner will push the location
            # without accessing it again.
            owner_idx = next(
                i for i, t in enumerate(cache.threads) if t.tid == owner
            )
            if owner == thread.tid or not _owner_releases_without_access(
                cache, state, owner_idx, loc
            ):
                return [_panic_state(
                    state, CpuPanic("owned-pull", thread.tid, loc, owner)
                )]
            frontier = tget(state.threads[owner_idx].coh, loc, 0)
            if cfg.check_barrier_fulfillment and ctx.vrn < frontier:
                return [_panic_state(
                    state, CpuPanic("unfenced-transfer", thread.tid, loc)
                )]
            pending = tset(pending, loc, owner)
            ownership = tset(ownership, loc, thread.tid)
            continue
        if cfg.check_barrier_fulfillment and ctx.vrn < tget(push_ts, loc, 0):
            return [_panic_state(
                state, CpuPanic("unfenced-pull", thread.tid, loc)
            )]
        ownership = tset(ownership, loc, thread.tid)
    new_state = state._replace(ownership=ownership, pending_release=pending)
    return [new_state.with_thread(tidx, _advance(cache, tidx, ctx, ctx.pc + 1))]


def _exec_push(cache, state, tidx, cfg, instr: Push, regs) -> List[ExecState]:
    ctx = state.threads[tidx]
    thread = cache.threads[tidx]
    if not cfg.pushpull:
        return [state.with_thread(tidx, _advance(cache, tidx, ctx, ctx.pc + 1))]
    if cfg.tso and ctx.wbuf:
        # A push publishes the location to the next owner; under TSO it
        # waits for the store buffer to drain so the owner's writes are
        # in memory before the transfer.
        return []
    ownership = state.ownership
    push_ts = state.push_ts
    pending = state.pending_release
    for expr in instr.locs:
        loc = expr.eval(regs)
        if tget(pending, loc, None) == thread.tid:
            # This push was promised early and the location has already
            # been transferred to the next owner; the pseudo-instruction
            # is now a no-op fulfillment.
            pending = tdel(pending, loc)
            continue
        owner = tget(ownership, loc, None)
        if owner != thread.tid:
            return [_panic_state(
                state, CpuPanic("unowned-push", thread.tid, loc, owner)
            )]
        ownership = tdel(ownership, loc)
        # Record the pusher's coherence frontier on the location: the
        # next pull's barrier frontier must cover everything the pusher
        # did to it ("the pull promise is fulfilled by a barrier" that
        # observed the push).  Using the per-location frontier (rather
        # than the global timeline length) keeps unrelated concurrent
        # writes from falsely failing correctly-fenced unlocks.
        push_ts = tset(push_ts, loc, tget(ctx.coh, loc, 0))
    new_state = state._replace(
        ownership=ownership, push_ts=push_ts, pending_release=pending
    )
    return [new_state.with_thread(tidx, _advance(cache, tidx, ctx, ctx.pc + 1))]


# ---------------------------------------------------------------------------
# promises
# ---------------------------------------------------------------------------

def cert_memo_enabled() -> bool:
    """Certification memoization is on unless ``REPRO_CERT_MEMO=0``.

    Like ``REPRO_POR`` / ``REPRO_INTERN``, the switch exists to measure
    (and cross-check) the engine against its own unoptimized baseline —
    memoization never changes results, only the cost of re-certifying.
    """
    return config.get("cert_memo")


class CertMemo:
    """Per-exploration memo for the certification searches.

    The certification step — "can thread *t*, running alone, fulfill all
    its promises?" — is a pure function of (a) the thread index, (b) the
    message timeline, (c) that thread's own context, and (d) the fields
    an isolated run can read: the TLB, the walker floor, and the panic
    flag.  Ownership, push timestamps, pending releases, and the *other*
    threads' contexts cannot influence it: certification runs with the
    push/pull discipline disabled and never steps another thread.  The
    same argument covers promise-candidate collection, which runs the
    identical single-thread step relation.  ``CertMemo`` therefore caches
    both by exactly that key, with the timeline compressed to its
    hash-consed interner code.

    One memo — and one :class:`~repro.memory.state.StateInterner` — is
    shared between the outer exploration and every nested certification
    search, replacing the fresh-interner-per-call scheme that dominated
    promise-heavy workloads.  The memo is scoped to a single
    (program, :class:`ModelConfig`) exploration: neither is part of the
    key, so never reuse an instance across explorations.

    Budget-cut searches are remembered as such: replaying a verdict whose
    computation hit ``cert_max_states`` re-counts ``cert_budget_hits``,
    so the counter is invariant under memoization and the explorer can
    refuse to call a budget-cut behavior set complete.
    """

    __slots__ = ("interner", "stats", "enabled", "_verdicts", "_candidates")

    def __init__(
        self,
        interner: Optional[StateInterner] = None,
        stats: Optional[EngineStats] = None,
    ) -> None:
        if interner is None and interning_enabled():
            interner = StateInterner()
        self.interner = interner
        self.stats = stats if stats is not None else EngineStats()
        self.enabled = cert_memo_enabled()
        self._verdicts: Dict[Tuple, Tuple[bool, bool]] = {}
        self._candidates: Dict[Tuple, Tuple[FrozenSet, bool]] = {}

    def thread_key(self, state: ExecState, tidx: int) -> Tuple:
        """The memo key: everything a single-thread search depends on."""
        if self.interner is not None:
            timeline = self.interner.timeline_code(state.memory)
        else:
            timeline = state.memory
        return (
            tidx,
            timeline,
            state.threads[tidx],
            state.tlb,
            state.walker_floor,
            state.panic,
            state.walk_cache,
            state.s2_walker_floor,
        )


def _single_thread_key(memo: Optional[CertMemo]):
    """The visited-set key function for a nested single-thread search."""
    if memo is not None and memo.interner is not None:
        return memo.interner.key
    if interning_enabled():
        return StateInterner().key
    return lambda s: s


def _collect_search(
    cache: ProgramCache,
    state: ExecState,
    tidx: int,
    cfg: ModelConfig,
    memo: Optional[CertMemo],
) -> Tuple[FrozenSet[Tuple[int, int]], bool]:
    """The candidate lookahead proper; returns (candidates, hit_budget)."""
    candidates: set = set()
    local_cfg = replace(cfg, pushpull=False)  # lookahead ignores ownership
    stack: List[Tuple[ExecState, int]] = [(state, 0)]
    state_key = _single_thread_key(memo)
    seen = {state_key(state)}
    budget = cfg.cert_max_states
    while stack and budget > 0:
        st, depth = stack.pop()
        budget -= 1
        ctx = st.threads[tidx]
        if (
            ctx.halted
            or st.panic is not None
            or depth >= cfg.promise_depth
            # No plain store reachable: nothing here or below can become
            # a candidate (covers ``pc`` past the end, too).
            or not cache.promisable_from(tidx, ctx.pc)
        ):
            continue
        instr = cache.instr_at(tidx, ctx.pc)
        is_plain_store = isinstance(instr, Store) and not instr.release
        if is_plain_store:
            regs = _regs_dict(ctx)
            try:
                loc = instr.addr.eval(regs)
                val = instr.value.eval(regs)
                candidates.add((loc, val))
            except Exception:
                pass
        next_depth = depth + (1 if is_plain_store else 0)
        for succ in execute_instruction(cache, st, tidx, local_cfg):
            if len(succ.memory) > cfg.max_memory:
                continue
            key = state_key(succ)
            if key not in seen:
                seen.add(key)
                stack.append((succ, next_depth))
    return frozenset(candidates), bool(stack)


def _certify_search(
    cache: ProgramCache,
    state: ExecState,
    tidx: int,
    cfg: ModelConfig,
    memo: Optional[CertMemo],
) -> Tuple[bool, bool]:
    """The certification DFS proper; returns (verdict, hit_budget)."""
    local_cfg = replace(cfg, pushpull=False)
    stack = [state]
    state_key = _single_thread_key(memo)
    seen = {state_key(state)}
    budget = cfg.cert_max_states
    while stack and budget > 0:
        st = stack.pop()
        budget -= 1
        ctx = st.threads[tidx]
        if not ctx.promises:
            return True, False
        if (
            ctx.halted
            or st.panic is not None
            # Only a plain store or a VStore fulfils a promise: with
            # none reachable, no path from here certifies.
            or not cache.fulfillable_from(tidx, ctx.pc)
        ):
            continue
        for succ in execute_instruction(cache, st, tidx, local_cfg):
            if len(succ.memory) > cfg.max_memory:
                continue
            key = state_key(succ)
            if key not in seen:
                seen.add(key)
                stack.append(succ)
    return False, bool(stack)


def collect_promise_candidates(
    cache: ProgramCache,
    state: ExecState,
    tidx: int,
    cfg: ModelConfig,
    memo: Optional[CertMemo] = None,
) -> FrozenSet[Tuple[int, int]]:
    """(loc, value) pairs of stores thread *tidx* could perform soon.

    A bounded thread-local lookahead: run only this thread forward (with
    every read choice) and record the first ``promise_depth`` stores along
    each path.  Release stores are never promisable (Arm's STLR is ordered
    after all program-order-earlier accesses, so promoting it early is
    architecturally impossible).  With a :class:`CertMemo`, results are
    cached per (thread, context, timeline) and the exploration's shared
    interner backs the visited set.
    """
    stats = memo.stats if memo is not None else None
    if stats is not None:
        stats.candidate_calls += 1
    use_memo = memo is not None and memo.enabled
    if use_memo:
        key = memo.thread_key(state, tidx)
        entry = memo._candidates.get(key)
        if entry is not None:
            candidates, hit_budget = entry
            stats.candidate_memo_hits += 1
            if hit_budget:
                stats.cert_budget_hits += 1
            return candidates
    candidates, hit_budget = _collect_search(cache, state, tidx, cfg, memo)
    if stats is not None and hit_budget:
        stats.cert_budget_hits += 1
    if use_memo:
        memo._candidates[key] = (candidates, hit_budget)
    return candidates


def certify(
    cache: ProgramCache,
    state: ExecState,
    tidx: int,
    cfg: ModelConfig,
    memo: Optional[CertMemo] = None,
) -> bool:
    """Can thread *tidx*, running alone, fulfill all its promises?

    This is the certification step of the Promising model: a promise may
    only be made if the thread can, in isolation against the current
    memory, reach a configuration with no outstanding promises.  With a
    :class:`CertMemo`, verdicts are cached per (thread, context,
    timeline) and the exploration's shared interner backs the visited
    set; ``REPRO_CERT_MEMO=0`` disables the cache (the ``memo``
    conformance oracle compares both settings).
    """
    stats = memo.stats if memo is not None else None
    if stats is not None:
        stats.certify_calls += 1
    use_memo = memo is not None and memo.enabled
    if use_memo:
        key = memo.thread_key(state, tidx)
        entry = memo._verdicts.get(key)
        if entry is not None:
            verdict, hit_budget = entry
            stats.certify_memo_hits += 1
            if hit_budget:
                stats.cert_budget_hits += 1
            return verdict
    verdict, hit_budget = _certify_search(cache, state, tidx, cfg, memo)
    if stats is not None and hit_budget:
        stats.cert_budget_hits += 1
    if use_memo:
        memo._verdicts[key] = (verdict, hit_budget)
    return verdict


def promise_steps(
    cache: ProgramCache,
    state: ExecState,
    tidx: int,
    cfg: ModelConfig,
    memo: Optional[CertMemo] = None,
    skip: Optional[Tuple[int, int]] = None,
) -> List[ExecState]:
    """Successor states where thread *tidx* promises a future store.

    Candidates are iterated in sorted order so the successor list — and
    therefore the outer DFS — is deterministic and identical with the
    certification memo on or off.  The ``(loc, value)`` candidate
    *skip* is dropped before it is certified (the explorer's own-store
    promise gate, :func:`repro.memory.exploration._promise_gate`); each
    drop counts in ``memo.stats.promise_gate_skips``.
    """
    ctx = state.threads[tidx]
    if (
        not cfg.relaxed
        or ctx.halted
        or state.panic is not None
        or len(ctx.promises) >= cfg.max_promises_per_thread
        or len(state.memory) >= cfg.max_memory
        # Fast path: no plain store is control-flow-reachable from here,
        # so the candidate lookahead is provably empty.
        or not cache.promisable_from(tidx, ctx.pc)
    ):
        return []
    thread = cache.threads[tidx]
    out: List[ExecState] = []
    for loc, val in sorted(
        collect_promise_candidates(cache, state, tidx, cfg, memo)
    ):
        if (loc, val) == skip:
            if memo is not None:
                memo.stats.promise_gate_skips += 1
            continue
        ts = len(state.memory) + 1
        promised = state.append_message(Message(ts, loc, val, thread.tid, True))
        promised = promised.with_thread(
            tidx, ctx._replace(promises=ctx.promises + (ts,))
        )
        certified = certify(cache, promised, tidx, cfg, memo)
        if tracer.SINK is not None:
            tracer.SINK.emit(
                tracer.PROMISE_CERTIFIED, tid=thread.tid, loc=loc, value=val,
                ts=ts, ok=certified,
            )
            if certified:
                tracer.SINK.emit(
                    tracer.PROMISE_MADE, tid=thread.tid, loc=loc, value=val,
                    ts=ts,
                )
        if certified:
            out.append(promised)
    return out
