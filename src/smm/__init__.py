"""smm: a deterministic virtual machine for object-oriented models.

Models are networks of objects whose behavior is written as flat action
lists; objects talk only through call, return and signal events queued per
receiver. The machine's semantics are open at four exchangeable points:
which threads an object offers (run-to-completion vs concurrent), how one
is scheduled (round-robin vs priority with aging), how operations dispatch,
and how events are delivered. Models live in ``.smm`` text files or are
built programmatically; runs are reproducible values.
"""

from .errors import Diagnostic, ExecError, InternalError, ModelError, SmmError
from .frontend import (
    ConfigSel, ModelDef, TraceRecord, build_config, load_model, parse_model,
    print_model, render_action, render_final_state, render_trace, run_model,
    trace_recorder,
)
from .state import (
    CallerRef, CallPayload, Event, EventKind, Frame, Message, ReturnPayload,
    SignalPayload, SimState, StoredObject, Thread, ThreadStatus,
    alloc_object, empty_state, enqueue_event, pop_frame, push_frame,
    take_matching_event, validate_state, write_attr,
)
from .universe import (
    AttrDef, BOOL, BoolType, BoolVal, ClassDef, ClassType, INT, IntType,
    IntVal, MethodDef, NULL_OID, NullOid, OidVal, OpSig, RecordVal,
    VOID, VOID_VAL, VoidType, VoidVal, super_chain, validate_model,
)
from .variation import (
    Config, ConcRunnables, RtcRunnables, RunnableEntry, deliver_reliable,
    dispatch_single, make_config, schedule_prio, schedule_rr,
)
from .vm import (
    Active, AllDone, Blocked, OKind, Passive, RunResult, Setup, SetupEntry,
    StepLimit, add_last_exec_info, build_initial_state, collect_runnables,
    consume_event, exec_step, run, run_main,
)

__all__ = [
    "Active", "AllDone", "AttrDef", "BOOL", "Blocked", "BoolType", "BoolVal",
    "CallPayload", "CallerRef", "ClassDef", "ClassType", "ConcRunnables",
    "Config", "ConfigSel", "Diagnostic", "Event", "EventKind", "ExecError",
    "Frame", "INT", "IntType", "IntVal", "InternalError", "Message",
    "MethodDef", "ModelDef", "ModelError", "NULL_OID", "NullOid", "OKind",
    "OidVal", "OpSig", "Passive", "RecordVal", "ReturnPayload", "RtcRunnables",
    "RunResult", "RunnableEntry", "Setup", "SetupEntry", "SignalPayload",
    "SimState", "SmmError", "StepLimit", "StoredObject", "Thread",
    "ThreadStatus", "TraceRecord", "VOID", "VOID_VAL", "VoidType", "VoidVal",
    "add_last_exec_info", "alloc_object", "build_config",
    "build_initial_state", "collect_runnables", "consume_event",
    "deliver_reliable", "dispatch_single", "empty_state",
    "enqueue_event", "exec_step", "load_model", "make_config", "parse_model",
    "pop_frame", "print_model", "push_frame", "render_action",
    "render_final_state", "render_trace", "run", "run_main", "run_model",
    "schedule_prio", "schedule_rr", "super_chain", "take_matching_event",
    "trace_recorder", "validate_model", "validate_state",
    "write_attr",
]
