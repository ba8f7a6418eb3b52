from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import settings

from smm import (
    AttrDef, ClassDef, INT, IntVal, MethodDef, OpSig, VOID, VOID_VAL,
    load_model, make_config,
)
from smm.actions import (
    LocalFromAttr, LocalFromParam, NewLocal, ReturnConst, ReturnLocal, SetAttr,
)

# Tier-1 draws the same examples on every run: derandomized, with no
# example database to replay or record earlier failures. The explore
# profile, chosen with --hypothesis-profile=explore, draws fresh random
# examples, ten times the default count, for local hunts. An explicit
# ``@settings(max_examples=...)`` keeps its count under both.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", max_examples=1000)
settings.load_profile("tier1")

REPO_ROOT = Path(__file__).resolve().parent.parent
MODELS_DIR = REPO_ROOT / "models"

# The four runnables x scheduler configs every differential test runs.
CONFIGS = [("rtc", "rr"), ("rtc", "prio"), ("conc", "rr"), ("conc", "prio")]

PUT_OP = OpSig("put", (INT,), VOID)
GET_OP = OpSig("get", (), INT)


def buffer_class() -> ClassDef:
    return ClassDef("Buffer", (AttrDef("data", INT, IntVal(-1)),))


def put_method() -> MethodDef:
    return MethodDef(PUT_OP, (("p", INT),), (
        NewLocal("d", INT, IntVal(0)),
        LocalFromParam("d", "p"),
        SetAttr("data", "d"),
        ReturnConst(VOID_VAL),
    ))


def get_method() -> MethodDef:
    return MethodDef(GET_OP, (), (
        NewLocal("d", INT, IntVal(0)),
        LocalFromAttr("d", "data"),
        NewLocal("m", INT, IntVal(-1)),
        SetAttr("data", "m"),
        ReturnLocal("d"),
    ))


def buffer_tables():
    """Class table, subclass relation and method map for a lone buffer."""
    classes = {"Buffer": buffer_class()}
    meth_map = {"Buffer": {PUT_OP: put_method(), GET_OP: get_method()}}
    return classes, {}, meth_map


def buffer_config(**kwargs):
    classes, scl, mm = buffer_tables()
    return make_config(classes, scl, mm, **kwargs)


@pytest.fixture(scope="session")
def prodcons_model():
    return load_model(MODELS_DIR / "prodcons.smm")


@pytest.fixture(scope="session")
def deadlock_model():
    return load_model(MODELS_DIR / "deadlock.smm")
