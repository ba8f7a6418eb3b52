"""smm: a deterministic virtual machine for object-oriented models.

Models are networks of objects whose behavior is written as flat action
lists; objects talk only through call, return and signal events queued per
receiver. The machine's semantics are open at four exchangeable points:
which threads an object offers (run-to-completion vs concurrent), how one
is scheduled (round-robin vs priority with aging), how operations dispatch,
and how events are delivered. Models live in ``.smm`` text files or are
built programmatically; runs are reproducible values.
"""

from .errors import ExecError, InternalError, ModelError, SmmError
from .frontend import (
    ModelDef, build_config, load_model, parse_model, print_model,
    render_final_state, run_model,
)
from .state import (
    CallerRef, CallPayload, EventKind, Frame, Message, ReturnPayload,
    StoredObject, Thread, ThreadStatus, alloc_object, empty_state, end_thread,
    enqueue_event, take_matching_event, validate_state, write_attr,
)
from .universe import (
    AttrDef, BOOL, BoolVal, ClassDef, ClassType, INT, IntVal, MethodDef,
    NULL_OID, OidVal, OpSig, RecordVal, VOID, VOID_VAL, super_chain,
    validate_model,
)
from .variation import (
    Config, RunnableEntry, deliver_reliable, dispatch_single, make_config,
    schedule_prio, schedule_rr,
)
from .vm import (
    Active, AllDone, Blocked, Passive, RunResult, SetupEntry, StepLimit,
    add_last_exec_info, build_initial_state, collect_runnables, consume_event,
    run, run_main,
)

# The documented API: what README names and the demos import. The other
# names above stay importable from here for existing callers.
__all__ = [
    "Active", "AllDone", "AttrDef", "Blocked", "ClassDef", "ClassType",
    "Config", "ExecError", "INT", "IntVal", "InternalError", "MethodDef",
    "ModelError", "NULL_OID", "OpSig", "Passive", "SetupEntry", "SmmError",
    "StepLimit", "VOID", "VOID_VAL", "deliver_reliable", "load_model",
    "make_config", "parse_model", "print_model", "render_final_state", "run",
    "run_main", "run_model",
]
