"""Interprocedural abstract interpretation over the module CFG.

One worklist fixpoint (the generic solver of
:mod:`repro.verify.dataflow`) interprets every instruction over the
three domains of :mod:`repro.verify.domains`: constant/interval register
values, symbolic stack height with frame-slot tracking, and
initialized-ness of registers and stack slots.  Interprocedural
precision comes from per-function :class:`FuncSummary` records iterated
to a fixpoint over the call graph, the same shape as
``flag_effect_summaries`` in :mod:`repro.verify.passes`.

The analysis is *optimistic about aliasing* in one documented way:
stores through pointers it cannot prove stack-derived do not invalidate
tracked frame slots.  Passing a stack address to a callee (or spilling
one to untracked memory) conservatively forgets every slot except saved
return addresses, which no legal code may alias.  The dynamic sanitizer
(:mod:`repro.sim.sanitize`) is the cross-check for exactly this gap.

Consumers:

* :func:`module_summaries` — per-function facts for
  ``pa/legality.py``'s sp-fragility gate (proven, not heuristic);
* :func:`audit_module` — the full :class:`AuditResult` (summaries plus
  site-level events) behind the ``audit`` CLI subcommand and the lint
  v2 rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.binary.program import BasicBlock, Module
from repro.isa.instructions import (
    DATAPROC_3OP,
    DATAPROC_COMPARE,
    DATAPROC_MOVE,
    Instruction,
)
from repro.isa.operands import Imm, LabelRef, Mem, Reg, ShiftedReg
from repro.isa.registers import PC, SP
from repro.telemetry import GLOBAL as _TELEMETRY

from repro.verify.cfg import BlockKey, ModuleCFG, build_module_cfg
from repro.verify.dataflow import FORWARD, Analysis, DataflowResult, solve
from tests.verify.oracle.domains import (
    BOT,
    BOTTOM_STATE,
    RETADDR,
    TOP,
    UNINIT,
    AbsState,
    AbsVal,
    Interval,
    StackAddr,
    add_values,
    allocate,
    const,
    deallocate,
    entry_state,
    frame_from_dict,
    join_states,
    join_values,
    negate_value,
    stack_depth_of,
)

#: Fixpoint bound for the summary iteration (call-graph depth of the
#: helpers-calling-helpers chains PA produces is small).
SUMMARY_ITERATIONS = 4

# event kinds -----------------------------------------------------------
CALLER_READ = "caller-frame-read"
CALLER_WRITE = "caller-frame-write"
RETADDR_CLOBBER = "retaddr-clobber"
UNINIT_READ = "uninit-slot-read"
NEGATIVE_HEIGHT = "negative-height"
HEIGHT_MISMATCH = "height-mismatch"
GROWTH_CYCLE = "growth-cycle"

#: Versioned schema of the ``audit --json`` payload.
AUDIT_SCHEMA = "repro.verify.audit/1"
#: Event kinds that are outright miscompiles (audit exits 1 on them);
#: everything else is legitimate — if unusual — code shape.
ERROR_KINDS = frozenset({RETADDR_CLOBBER, HEIGHT_MISMATCH})


@dataclass(frozen=True)
class AbsEvent:
    """One site-level fact the interpreter proved.

    ``insn`` is ``None`` for block-level events (join mismatches);
    ``depth`` carries the entry-relative byte depth for stack events.
    """

    kind: str
    function: str
    block: int
    insn: Optional[int]
    detail: str
    depth: Optional[int] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "function": self.function,
            "block": self.block,
            "insn": self.insn,
            "detail": self.detail,
            "depth": self.depth,
        }


@dataclass(frozen=True)
class FuncSummary:
    """Per-function invariants, the interprocedural currency.

    ``net_delta`` is the stack bytes still allocated when the function
    returns (0 for convention-respecting code, ``None`` when unknown or
    inconsistent).  ``caller_reads``/``caller_writes`` are the relative
    depths (≤ 0, bytes below the *callee's* entry ``sp``) at which the
    function provably touches memory its caller owns.
    """

    net_delta: Optional[int] = 0
    height_known: bool = True
    max_height: int = 0
    caller_reads: Tuple[int, ...] = ()
    caller_writes: Tuple[int, ...] = ()
    retaddr_slots: Tuple[int, ...] = ()
    returns: int = 0
    has_negative_height: bool = False

    @property
    def touches_caller_frame(self) -> bool:
        return bool(self.caller_reads or self.caller_writes
                    or self.has_negative_height)

    @property
    def fragile(self) -> bool:
        """True when calling this function under a ``push {lr}`` bracket
        (or from any context it was not extracted from) is unsafe."""
        return (
            not self.height_known
            or self.net_delta != 0
            or self.touches_caller_frame
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "net_delta": self.net_delta,
            "height_known": self.height_known,
            "max_height": self.max_height,
            "caller_reads": list(self.caller_reads),
            "caller_writes": list(self.caller_writes),
            "retaddr_slots": list(self.retaddr_slots),
            "returns": self.returns,
            "has_negative_height": self.has_negative_height,
            "touches_caller_frame": self.touches_caller_frame,
            "fragile": self.fragile,
        }


#: Registers a call leaves holding callee garbage (scratch minus the
#: return value) — mirrors ``passes.CALL_CLOBBERED`` for values.
_CALL_GARBAGE = (1, 2, 3, 12)


def _flex_value(regs: List[AbsVal], op: object) -> AbsVal:
    if isinstance(op, Imm):
        return const(op.value)
    if isinstance(op, Reg):
        return regs[op.num]
    if isinstance(op, ShiftedReg):
        value = regs[op.num]
        if value is UNINIT or value is BOT:
            return value
        if isinstance(value, Interval) and op.shift_op == "lsl":
            # widening is applied by the abstract add
            return add_values(
                const(0),
                Interval(value.lo << op.amount, value.hi << op.amount),
            )
        return TOP
    return TOP


class _Sink:
    """Collects events during the extraction walk (None while solving)."""

    def __init__(self) -> None:
        self.events: List[AbsEvent] = []
        self.site: Tuple[str, int, Optional[int]] = ("", 0, None)

    def emit(self, kind: str, detail: str,
             depth: Optional[int] = None) -> None:
        func, block, insn = self.site
        self.events.append(
            AbsEvent(kind, func, block, insn, detail, depth)
        )


def _wipe_untrusted(frame: Dict[int, AbsVal]) -> None:
    """Forget every slot value except saved return addresses."""
    for depth, value in frame.items():
        if value is not RETADDR:
            frame[depth] = TOP


def _set_sp(regs: List[AbsVal], frame: Dict[int, AbsVal],
            value: AbsVal) -> None:
    """Move ``sp``, allocating/deallocating tracked slots to match."""
    old_h = stack_depth_of(regs[SP])
    regs[SP] = value
    new_h = stack_depth_of(value)
    if old_h is None or new_h is None:
        return
    # grow: fresh slots hold garbage; shrink: slots below sp are gone
    if new_h > old_h:
        for depth, slot in allocate(frame_from_dict(frame), old_h, new_h):
            frame[depth] = slot
    elif new_h < old_h:
        for depth in [d for d in frame if d > new_h]:
            del frame[depth]


def _mem_depth(regs: List[AbsVal], mem: Mem) -> Optional[int]:
    """Depth a load/store addresses, when provably stack-relative."""
    base_depth = stack_depth_of(regs[mem.base])
    if base_depth is None or mem.index is not None:
        return None
    if mem.pre:
        return base_depth - mem.offset
    return base_depth  # post-indexed: the access uses the raw base


def _mem_writeback(regs: List[AbsVal], mem: Mem) -> Optional[AbsVal]:
    """New base value for writeback forms, else None."""
    if not mem.writeback:
        return None
    if mem.index is not None:
        return add_values(regs[mem.base], regs[mem.index])
    return add_values(regs[mem.base], const(mem.offset))


def _load_slot(frame: Dict[int, AbsVal], depth: int, height: Optional[int],
               sink: Optional[_Sink], what: str) -> AbsVal:
    """Read the tracked slot at *depth*, emitting events as proven."""
    if depth <= 0:
        if sink:
            sink.emit(CALLER_READ,
                      f"{what} reads caller-owned stack at entry-relative "
                      f"depth {depth}", depth)
        return TOP
    if height is not None and depth > height:
        if sink:
            sink.emit(UNINIT_READ,
                      f"{what} reads below sp (deallocated stack) at "
                      f"depth {depth}", depth)
        return UNINIT
    value = frame.get(depth, TOP)
    if value is UNINIT and sink:
        sink.emit(UNINIT_READ,
                  f"{what} reads stack slot at depth {depth} before any "
                  f"write reaches it", depth)
    return value


def _store_slot(frame: Dict[int, AbsVal], depth: int,
                height: Optional[int], value: AbsVal, word: bool,
                sink: Optional[_Sink], what: str) -> None:
    if depth <= 0:
        if sink:
            sink.emit(CALLER_WRITE,
                      f"{what} writes caller-owned stack at entry-relative "
                      f"depth {depth}", depth)
        return
    if frame.get(depth) is RETADDR:
        if sink:
            sink.emit(RETADDR_CLOBBER,
                      f"{what} overwrites the saved return address at "
                      f"depth {depth}", depth)
    if height is not None and depth <= height:
        frame[depth] = value if word and depth % 4 == 0 else TOP


def _apply_call(regs: List[AbsVal], frame: Dict[int, AbsVal],
                summary: Optional[FuncSummary], callee: str,
                escaped: bool, sink: Optional[_Sink]) -> None:
    """Transfer a ``bl`` through its callee's summary."""
    height = stack_depth_of(regs[SP])
    # a stack pointer visible in the argument registers (or previously
    # spilled) may let the callee write anywhere in our frame
    args_escape = any(
        isinstance(regs[r], StackAddr) for r in (0, 1, 2, 3)
    )
    if args_escape or escaped:
        _wipe_untrusted(frame)

    if summary is not None and height is not None:
        for rel in summary.caller_writes:
            depth = height + rel
            if frame.get(depth) is RETADDR and sink:
                sink.emit(RETADDR_CLOBBER,
                          f"call to {callee} overwrites the saved return "
                          f"address at depth {depth} (callee writes its "
                          f"entry-relative depth {rel})", depth)
            if depth > 0:
                frame[depth] = TOP
            elif sink:
                # the callee reaches through our whole frame into the
                # memory *our* caller owns: the access is transitively
                # ours, so our own summary must carry it
                sink.emit(CALLER_WRITE,
                          f"call to {callee} writes caller-owned stack "
                          f"at entry-relative depth {depth}", depth)
        for rel in summary.caller_reads:
            depth = height + rel
            if depth > 0 and frame.get(depth) is UNINIT and sink:
                sink.emit(UNINIT_READ,
                          f"call to {callee} reads stack slot at depth "
                          f"{depth} before any write reaches it", depth)
            elif depth <= 0 and sink:
                sink.emit(CALLER_READ,
                          f"call to {callee} reads caller-owned stack "
                          f"at entry-relative depth {depth}", depth)
    elif summary is not None and summary.touches_caller_frame:
        _wipe_untrusted(frame)

    if summary is None or summary.net_delta == 0:
        pass  # convention: sp preserved
    elif summary.net_delta is None or height is None:
        regs[SP] = TOP
    else:
        _set_sp(regs, frame, StackAddr(height + summary.net_delta))
    if summary is not None and not summary.height_known:
        _wipe_untrusted(frame)

    regs[0] = TOP
    for r in _CALL_GARBAGE:
        regs[r] = UNINIT
    regs[14] = TOP  # lr now holds the return site, a code address


def _step_core(regs: List[AbsVal], frame: Dict[int, AbsVal],
               insn: Instruction,
               summaries: Optional[Dict[str, FuncSummary]],
               escaped: List[bool],
               sink: Optional[_Sink]) -> None:
    """Unconditional single-instruction transfer, mutating in place."""
    m = insn.mnemonic
    ops = insn.operands
    height = stack_depth_of(regs[SP])
    what = str(insn)

    if m in DATAPROC_3OP:
        rd = ops[0].num
        a = regs[ops[1].num]
        b = _flex_value(regs, ops[2])
        if m == "add":
            value = add_values(a, b)
        elif m == "sub":
            value = add_values(a, negate_value(b))
        elif m == "rsb":
            value = add_values(negate_value(a), b)
        elif a is UNINIT or b is UNINIT:
            value = UNINIT
        else:
            value = TOP
        if rd == SP:
            _set_sp(regs, frame, value)
            new_h = stack_depth_of(value)
            if sink and new_h is not None and new_h < 0:
                sink.emit(NEGATIVE_HEIGHT,
                          f"{what} raises sp {-new_h} bytes above its "
                          f"function-entry value")
        else:
            regs[rd] = value
    elif m in DATAPROC_MOVE:
        rd = ops[0].num
        value = _flex_value(regs, ops[1])
        if m == "mvn":
            value = UNINIT if value is UNINIT else TOP
        if rd == SP:
            _set_sp(regs, frame, value)
        elif rd != PC:
            regs[rd] = value
    elif m in DATAPROC_COMPARE:
        pass  # flags only; the flag passes own NZCV
    elif m in ("mul", "mla"):
        srcs = [regs[op.num] for op in ops[1:]]
        regs[ops[0].num] = UNINIT if any(
            s is UNINIT for s in srcs) else TOP
    elif m in ("ldr", "ldrb"):
        if isinstance(ops[1], LabelRef):
            regs[ops[0].num] = TOP  # a constant address
        else:
            mem = ops[1]
            depth = _mem_depth(regs, mem)
            if depth is None:
                value = TOP
            else:
                value = _load_slot(frame, depth, height, sink, what)
                if m == "ldrb" and value not in (UNINIT,):
                    value = TOP  # one byte of a tracked word
            wb = _mem_writeback(regs, mem)
            if wb is not None:
                if mem.base == SP:
                    _set_sp(regs, frame, wb)
                else:
                    regs[mem.base] = wb
            regs[ops[0].num] = value
    elif m in ("str", "strb"):
        mem = ops[1]
        value = regs[ops[0].num]
        depth = _mem_depth(regs, mem)
        if depth is not None:
            _store_slot(frame, depth, height, value, m == "str",
                        sink, what)
        elif isinstance(value, StackAddr):
            # a stack address leaks to untracked memory: any later call
            # may write through it
            escaped[0] = True
        wb = _mem_writeback(regs, mem)
        if wb is not None:
            if mem.base == SP:
                _set_sp(regs, frame, wb)
            else:
                regs[mem.base] = wb
    elif m == "push":
        regs_list = ops[0].regs
        count = len(regs_list)
        if height is not None:
            new_h = height + 4 * count
            pushed = [regs[r] for r in regs_list]  # before sp moves
            _set_sp(regs, frame, StackAddr(new_h))  # allocates slots
            for i, value in enumerate(pushed):
                depth = new_h - 4 * i
                _store_slot(frame, depth, new_h, value, True, sink,
                            what)
        else:
            regs[SP] = add_values(regs[SP], const(-4 * count))
    elif m == "pop":
        regs_list = ops[0].regs
        count = len(regs_list)
        if height is not None:
            values = []
            for i, r in enumerate(regs_list):
                depth = height - 4 * i
                values.append((r, _load_slot(frame, depth, height, sink,
                                             what)))
            new_h = height - 4 * count
            for r, value in values:
                if r not in (SP, PC):
                    regs[r] = value
            if sink and new_h < 0:
                sink.emit(NEGATIVE_HEIGHT,
                          f"{what} raises sp {-new_h} bytes above its "
                          f"function-entry value")
            if SP in regs_list:
                regs[SP] = TOP  # restored from memory, then bumped
                for depth in [d for d in frame]:
                    del frame[depth]
            else:
                _set_sp(regs, frame, StackAddr(new_h))
        else:
            for r in regs_list:
                if r not in (SP, PC):
                    regs[r] = TOP
            regs[SP] = add_values(regs[SP], const(4 * count))
    elif m == "bl":
        summary = None
        if summaries is not None:
            summary = summaries.get(insn.label_target)
        _apply_call(regs, frame, summary, insn.label_target or "?",
                    escaped[0], sink)
    elif m == "swi":
        regs[0] = TOP
    # b / bx: no register effects


def step_state(state: AbsState, insn: Instruction,
               summaries: Optional[Dict[str, FuncSummary]] = None,
               sink: Optional[_Sink] = None) -> AbsState:
    """Advance one abstract state across one instruction."""
    if state.bottom:
        return state
    regs = list(state.regs)
    frame = dict(state.frame)
    escaped = [state.escaped]
    _step_core(regs, frame, insn, summaries, escaped, sink)
    after = AbsState(regs=tuple(regs), frame=frame_from_dict(frame),
                     escaped=escaped[0])
    if insn.is_conditional:
        # the instruction may not execute; events stay (may-semantics)
        return join_states(state, after)
    return after


class AbsIntAnalysis(Analysis):
    """The forward abstract-interpretation dataflow problem."""

    direction = FORWARD

    def __init__(self, summaries: Dict[str, FuncSummary]) -> None:
        self.summaries = summaries

    def boundary(self, cfg: ModuleCFG, key: BlockKey) -> AbsState:
        return entry_state()

    def initial(self, cfg: ModuleCFG, key: BlockKey) -> AbsState:
        return BOTTOM_STATE

    def join(self, a: AbsState, b: AbsState) -> AbsState:
        return join_states(a, b)

    def transfer(self, key: BlockKey, block: BasicBlock,
                 state: AbsState) -> AbsState:
        for insn in block.instructions:
            state = step_state(state, insn, self.summaries)
        return state


@dataclass
class AuditResult:
    """Everything one audit run proved about a module."""

    summaries: Dict[str, FuncSummary]
    events: List[AbsEvent]
    result: DataflowResult
    iterations: int = 1

    def functions_dict(self) -> Dict[str, Dict[str, object]]:
        return {
            name: summary.to_dict()
            for name, summary in sorted(self.summaries.items())
        }

    @property
    def ok(self) -> bool:
        """No proven-miscompile event (see :data:`ERROR_KINDS`)."""
        return not any(e.kind in ERROR_KINDS for e in self.events)

    def to_payload(self, source: str = "") -> Dict[str, object]:
        """The versioned ``audit --json`` payload (:data:`AUDIT_SCHEMA`)."""
        errors = sum(1 for e in self.events if e.kind in ERROR_KINDS)
        return {
            "schema": AUDIT_SCHEMA,
            "source": source,
            "ok": errors == 0,
            "iterations": self.iterations,
            "counts": {"events": len(self.events), "errors": errors},
            "functions": self.functions_dict(),
            "events": [e.to_dict() for e in self.events],
        }


def _return_height(state: AbsState, block: BasicBlock, upto: int,
                   summaries: Dict[str, FuncSummary]) -> Optional[int]:
    """Height when the return at index *upto* transfers control."""
    for insn in block.instructions[:upto]:
        state = step_state(state, insn, summaries)
    ret = block.instructions[upto]
    if ret.mnemonic == "pop":
        state = step_state(state, ret, summaries)
    return state.height


def _walk_blocks(
    cfg: ModuleCFG,
    result: DataflowResult,
    summaries: Dict[str, FuncSummary],
) -> Tuple[List[AbsEvent], Dict[BlockKey, Tuple[bool, int, bool, Tuple[int, ...]]]]:
    """One global pass: collect events and per-block height stats.

    Returns the events plus ``key -> (height_known, max_height,
    has_negative, retaddr_depths)`` for summary aggregation.
    """
    events: List[AbsEvent] = []
    stats: Dict[BlockKey, Tuple[bool, int, bool, Tuple[int, ...]]] = {}
    for key in cfg.keys:
        state = result.in_facts[key]
        if state.bottom:
            continue
        sink = _Sink()
        known, max_h, negative = True, 0, False
        retaddrs: Set[int] = set()
        for index, insn in enumerate(cfg.blocks[key].instructions):
            h = state.height
            if h is None:
                known = False
            else:
                max_h = max(max_h, h)
                if h < 0:
                    negative = True
            for depth, value in state.frame:
                if value is RETADDR:
                    retaddrs.add(depth)
            sink.site = (key[0], key[1], index)
            state = step_state(state, insn, summaries, sink)
        h = state.height
        if h is None:
            known = False
        else:
            max_h = max(max_h, h)
            if h < 0:
                negative = True
        events.extend(sink.events)
        stats[key] = (known, max_h, negative, tuple(sorted(retaddrs)))
    return events, stats


def _join_mismatches(cfg: ModuleCFG, result: DataflowResult,
                     reachable: Set[BlockKey]) -> List[AbsEvent]:
    """Blocks where joining predecessors lost the stack height.

    Reported only at the frontier (some incoming height still known);
    a lost height inside a cycle is unbounded growth, elsewhere an
    unbalanced merge.
    """
    events: List[AbsEvent] = []
    entries = set(cfg.entries)
    for key in cfg.keys:
        if key not in reachable:
            continue
        state = result.in_facts[key]
        if state.bottom or state.height is not None:
            continue
        incoming: List[Optional[int]] = [
            result.out_facts[p].height for p in cfg.pred[key]
            if not result.out_facts[p].bottom
        ]
        if key in entries:
            incoming.append(0)
        if not any(h is not None for h in incoming):
            continue  # downstream of the original loss
        in_cycle = key in cfg.reachable(list(cfg.succ[key]))
        kind = GROWTH_CYCLE if in_cycle else HEIGHT_MISMATCH
        detail = (
            "stack height does not stabilise around this loop (net "
            "per-iteration sp delta is non-zero)"
            if in_cycle else
            "incoming paths reach this block at different stack heights"
        )
        events.append(AbsEvent(kind, key[0], key[1], None, detail))
    return events


def _extract_summaries(
    module: Module,
    cfg: ModuleCFG,
    result: DataflowResult,
    summaries: Dict[str, FuncSummary],
    reach: Dict[str, Set[BlockKey]],
) -> Tuple[Dict[str, FuncSummary], List[AbsEvent]]:
    events, stats = _walk_blocks(cfg, result, summaries)
    events_by_key: Dict[BlockKey, List[AbsEvent]] = {}
    for event in events:
        if event.kind in (CALLER_READ, CALLER_WRITE):
            events_by_key.setdefault(
                (event.function, event.block), []).append(event)

    updated: Dict[str, FuncSummary] = {}
    for func in module.functions:
        if not func.blocks:
            updated[func.name] = FuncSummary()
            continue
        keys = [k for k in cfg.keys if k in reach[func.name]]
        known, max_h, negative = True, 0, False
        retaddrs: Set[int] = set()
        reads: Set[int] = set()
        writes: Set[int] = set()
        for key in keys:
            if key not in stats:
                continue
            b_known, b_max, b_neg, b_ret = stats[key]
            known = known and b_known
            max_h = max(max_h, b_max)
            negative = negative or b_neg
            retaddrs.update(b_ret)
            for event in events_by_key.get(key, ()):
                if event.depth is None:
                    continue
                if event.kind == CALLER_READ:
                    reads.add(event.depth)
                else:
                    writes.add(event.depth)
        ret_heights: Set[Optional[int]] = set()
        returns = 0
        for key in keys:
            state = result.in_facts[key]
            if state.bottom:
                continue
            block = cfg.blocks[key]
            for index, insn in enumerate(block.instructions):
                if insn.is_return:
                    returns += 1
                    ret_heights.add(
                        _return_height(state, block, index, summaries)
                    )
        if None in ret_heights or len(ret_heights) > 1:
            net: Optional[int] = None
        elif ret_heights:
            net = ret_heights.pop()
        else:
            net = 0  # never returns (exits via swi)
        updated[func.name] = FuncSummary(
            net_delta=net,
            height_known=known,
            max_height=max_h,
            caller_reads=tuple(sorted(reads)),
            caller_writes=tuple(sorted(writes)),
            retaddr_slots=tuple(sorted(retaddrs)),
            returns=returns,
            has_negative_height=negative,
        )
    return updated, events


def audit_module(module: Module,
                 cfg: Optional[ModuleCFG] = None,
                 max_iterations: int = SUMMARY_ITERATIONS) -> AuditResult:
    """Interpret the whole module; returns summaries plus site events.

    Summaries start optimistic (every callee convention-respecting) and
    are re-derived from each solve until they stabilise, so fragile
    helpers propagate fragility to the helpers that call them.
    """
    with _TELEMETRY.span("verify.audit"):
        cfg = cfg or build_module_cfg(module)
        reach: Dict[str, Set[BlockKey]] = {
            func.name: (cfg.reachable([(func.name, 0)]) if func.blocks
                        else set())
            for func in module.functions
        }
        summaries: Dict[str, FuncSummary] = {}
        events: List[AbsEvent] = []
        result: Optional[DataflowResult] = None
        iterations = 0
        for __ in range(max_iterations):
            iterations += 1
            with _TELEMETRY.span("verify.pass", analysis="absint"):
                result = solve(cfg, AbsIntAnalysis(summaries))
            updated, events = _extract_summaries(
                module, cfg, result, summaries, reach
            )
            if updated == summaries:
                break
            summaries = updated
        assert result is not None
        reachable = cfg.reachable()
        events = events + _join_mismatches(cfg, result, reachable)
        if _TELEMETRY.enabled:
            _TELEMETRY.count("verify.audit.runs")
            _TELEMETRY.count("verify.audit.events", len(events))
            _TELEMETRY.count("verify.audit.iterations", iterations)
        return AuditResult(summaries=summaries, events=events,
                           result=result, iterations=iterations)


def module_summaries(module: Module,
                     cfg: Optional[ModuleCFG] = None
                     ) -> Dict[str, FuncSummary]:
    """Per-function absint summaries (the legality gate's input)."""
    return audit_module(module, cfg).summaries
