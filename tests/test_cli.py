from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import smm.cli
from smm.cli import (
    EXIT_BLOCKED, EXIT_INTERRUPTED, EXIT_OK, EXIT_RUNTIME, EXIT_STEP_LIMIT,
    EXIT_USAGE, EXIT_VALIDATION, main,
)

from conftest import MODELS_DIR, REPO_ROOT

PRODCONS = str(MODELS_DIR / "prodcons.smm")
DEADLOCK = str(MODELS_DIR / "deadlock.smm")


class TestRunCommand:
    def test_race_configuration(self, capsys):
        code = main(["run", PRODCONS, "--runnables", "conc",
                     "--scheduler", "rr"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert 'Consumer(id 1): [("data",VInt 10),("b",XOID 3)]' in out
        assert 'Consumer(id 2): [("data",VInt 10),("b",XOID 3)]' in out
        assert 'Buffer(id 3): [("data",VInt 20)]' in out
        assert "time:" in out

    def test_consistent_configuration(self, capsys):
        code = main(["run", PRODCONS, "--runnables", "rtc",
                     "--scheduler", "prio"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert 'Buffer(id 3): [("data",VInt -1)]' in out

    def test_flags_override_the_file_config(self, capsys):
        # The file selects conc+rr (the racy run); forcing rtc flips the
        # buffer back to the consistent outcome.
        code = main(["run", PRODCONS, "--runnables", "rtc"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert 'Buffer(id 3): [("data",VInt -1)]' in out

    def test_blocked_model_exit_code_and_listing(self, capsys):
        code = main(["run", DEADLOCK])
        captured = capsys.readouterr()
        assert code == EXIT_BLOCKED
        assert "waiting threads" in captured.err
        assert "(oid 0, tid 0)" in captured.err

    def test_step_limit_exit_code(self, capsys):
        code = main(["run", PRODCONS, "--max-steps", "3"])
        capsys.readouterr()
        assert code == EXIT_STEP_LIMIT

    def test_a_negative_step_limit_is_a_usage_error(self, capsys):
        code = main(["run", PRODCONS, "--max-steps", "-3"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.err.splitlines()[-1] == \
            "smm: error: argument --max-steps: -3 is negative"
        assert captured.out == ""
        # The limit's least value stops the run before its first step.
        assert main(["run", PRODCONS, "--max-steps", "0"]) == EXIT_STEP_LIMIT
        assert "time: 0" in capsys.readouterr().out

    @pytest.mark.parametrize("trace", [False, True])
    def test_ctrl_c_prints_the_trace_so_far(self, capsys, monkeypatch,
                                             trace):
        main(["run", PRODCONS, "--trace", "--max-steps", "3"])
        first_steps = capsys.readouterr().out.splitlines()[:3]
        run_main = smm.cli.run_main

        def interrupted(cfg, setup, *, max_steps=None, on_step=None):
            run_main(cfg, setup, max_steps=3, on_step=on_step)
            raise KeyboardInterrupt

        monkeypatch.setattr(smm.cli, "run_main", interrupted)
        code = main(["run", PRODCONS] + (["--trace"] if trace else []))
        captured = capsys.readouterr()
        assert code == EXIT_INTERRUPTED == 130
        assert captured.out.splitlines() == (first_steps if trace else [])
        assert captured.err == "smm: interrupted\n"

    def test_structured_format(self, capsys):
        code = main(["run", PRODCONS, "--format", "structured"])
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert doc["halt"] == "all-done"

    def test_trace_lines(self, capsys):
        code = main(["run", PRODCONS, "--max-steps", "2", "--trace"])
        out = capsys.readouterr().out
        assert code == EXIT_STEP_LIMIT
        assert "[    0] obj=0 tid=0 pc=0" in out

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "result.txt"
        code = main(["run", PRODCONS, "--out", str(target)])
        capsys.readouterr()
        assert code == EXIT_OK
        assert "attributes:" in target.read_text()

    def test_module_entry_point_in_a_fresh_interpreter(self, tmp_path,
                                                       capsys, monkeypatch):
        # The command line the benchmark times; a fresh interpreter imports
        # every value class and renders the trace from nothing cached.
        def argv(out):
            return ["run", "models/prodcons.smm", "--trace", "--format",
                    "structured", "--out", str(out)]

        src = str(Path(smm.cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        fresh = subprocess.run(
            [sys.executable, "-m", "smm.cli", *argv(tmp_path / "fresh.json")],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            timeout=60)
        monkeypatch.chdir(REPO_ROOT)
        code = main(argv(tmp_path / "here.json"))
        here = capsys.readouterr()
        assert (fresh.returncode, fresh.stderr) == (code, here.err) == \
            (EXIT_OK, "")
        assert fresh.stdout == here.out
        assert fresh.stdout.startswith("[    0] obj=0 tid=0 pc=0 ")
        assert (tmp_path / "fresh.json").read_text(encoding="utf-8") == \
            (tmp_path / "here.json").read_text(encoding="utf-8")
        assert json.loads((tmp_path / "fresh.json").read_text(
            encoding="utf-8"))["halt"] == "all-done"

    def test_an_unwritable_out_file_is_a_usage_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "result.txt"
        code = main(["run", PRODCONS, "--out", str(target)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.err == \
            f"smm: cannot write {target}: No such file or directory\n"
        assert captured.out == ""

    def test_a_model_file_that_is_not_utf8_is_a_validation_error(
            self, tmp_path, capsys):
        bad = tmp_path / "bad.smm"
        bad.write_bytes(b"class A { }\n\xff\xfe\n")
        code = main(["run", str(bad)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == \
            f"{bad}:2:1: byte 0xff is not UTF-8 (invalid start byte)\n"

    def test_a_leading_byte_order_mark_is_skipped(self, tmp_path, capsys):
        path = tmp_path / "bom.smm"
        source = (MODELS_DIR / "prodcons.smm").read_bytes()
        path.write_bytes(b"\xef\xbb\xbf" + source)
        assert main(["run", str(path)]) == EXIT_OK
        with_mark = capsys.readouterr()
        assert main(["run", PRODCONS]) == EXIT_OK
        assert capsys.readouterr() == with_mark

    def test_missing_file_is_a_validation_error(self, capsys):
        code = main(["run", str(MODELS_DIR / "nope.smm")])
        capsys.readouterr()
        assert code == EXIT_VALIDATION

    def test_invalid_model_reports_diagnostics(self, tmp_path, capsys):
        bad = tmp_path / "bad.smm"
        bad.write_text("class A { attr x: Int = true; }")
        code = main(["run", str(bad)])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert "bad.smm:1:" in err

    def test_deep_inheritance_chain_runs(self, tmp_path, capsys):
        # Deeper than Python's recursion limit: the chain walk must not
        # recurse.
        lines = ["class C0 { }"]
        lines += [f"class C{i} extends C{i - 1} {{ }}" for i in range(1, 1500)]
        lines += ["op C0.go(): Void { return void; }",
                  "setup { o: C1499 active go prio 0; }"]
        model = tmp_path / "deep.smm"
        model.write_text("\n".join(lines) + "\n")
        assert main(["run", str(model)]) == EXIT_OK
        assert "C1499(id 0)" in capsys.readouterr().out

    def test_link_of_the_wrong_class_is_a_validation_error(self, tmp_path,
                                                           capsys):
        # The link would fill ``b: Buffer`` with a Worker, whose put() call
        # could only fail at run time.
        model = tmp_path / "link.smm"
        model.write_text("""class Buffer { attr data: Int = 0; }
class Worker { attr b: Buffer = null; }
op Buffer.put(p: Int): Void { return void; }
op Worker.work(): Void {
  let b: Buffer = null;
  loadattr b b;
  let x: Int = 1;
  call b.put(x) -> r;
  return void;
}
setup {
  w: Worker active work prio 1 links [b];
  b: Worker passive;
}
""")
        code = main(["run", str(model)])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert err == (f"{model}:12:3: link 'b' of 'w' would store a "
                       f"'Worker' in an attribute of type Buffer\n")

    def test_a_class_named_like_a_built_in_type_is_a_validation_error(
            self, tmp_path, capsys):
        model = tmp_path / "m.smm"
        model.write_text("class Int { attr me: Int = 0; }\n")
        code = main(["run", str(model)])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert err == (f"{model}:1:7: class 'Int' has the name of a "
                       f"built-in type\n")

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        crashy = tmp_path / "crashy.smm"
        crashy.write_text("""
        class A { }
        op A.go(): Void {
          let t: A = null;
          call t.go() -> r;
          return void;
        }
        setup { a: A active go prio 1; }
        """)
        code = main(["run", str(crashy)])
        err = capsys.readouterr().err
        assert code == EXIT_RUNTIME
        assert "null reference" in err

    def test_runtime_error_under_trace(self, tmp_path, capsys):
        # The steps that ran are printed before the error that stopped
        # the run.
        model = tmp_path / "fails_traced.smm"
        model.write_text("""
        class A { }
        op A.go(): Void {
          let x: Int = 0;
          let b: Bool = true;
          add x x b;
          return void;
        }
        setup { a: A active go prio 1; }
        """)
        code = main(["run", str(model), "--trace"])
        captured = capsys.readouterr()
        assert code == EXIT_RUNTIME
        assert captured.out == ("[    0] obj=0 tid=0 pc=0 let x: Int = 0\n"
                                "[    1] obj=0 tid=0 pc=1 let b: Bool = true\n")
        assert captured.err == ("smm: runtime error: local 'b' is not an "
                                "integer [oid=0, tid=0, pc=2]\n")

    def test_attribute_write_error_carries_one_context_suffix(self, tmp_path,
                                                              capsys):
        # Superclass code may name an attribute only a subclass declares;
        # run on a superclass instance, the write finds no such attribute.
        model = tmp_path / "subclass_only.smm"
        model.write_text("""
        class B { }
        class C extends B { attr n: Int = 0; }
        op B.go(): Void {
          let one: Int = 1;
          setattr n one;
          return void;
        }
        setup { b: B active go prio 1; }
        """)
        code = main(["run", str(model)])
        err = capsys.readouterr().err
        assert code == EXIT_RUNTIME
        assert err == ("smm: runtime error: object 0 (B) has no attribute "
                       "'n' [oid=0, tid=0, pc=1]\n")

    def test_attribute_read_error_names_the_running_object(self, tmp_path,
                                                             capsys):
        # C's code may read n, which D declares, because an X is both a C
        # and a D; run on a plain C object, the read finds no such
        # attribute.
        model = tmp_path / "sibling_read.smm"
        model.write_text("""
        class C { }
        class D { attr n: Int = 0; }
        class X extends C, D { }
        op C.go(): Void {
          let v: Int = 0;
          loadattr v n;
          return void;
        }
        setup { c: C active go prio 1; }
        """)
        code = main(["run", str(model)])
        err = capsys.readouterr().err
        assert code == EXIT_RUNTIME
        assert err == ("smm: runtime error: object 0 (C) has no attribute "
                       "'n' [oid=0, tid=0, pc=1]\n")

    def test_integer_overflow_is_a_runtime_error(self, tmp_path, capsys):
        # Squaring 10 leaves the signed 64-bit range at 10**32, on the
        # fifth pass; an unbounded Int would reach 10**16384 and fail to
        # render.
        model = tmp_path / "squares.smm"
        model.write_text("""
        class A { attr x: Int = 0; }
        op A.go(): Void {
          let x: Int = 10;
          let i: Int = 0;
          let n: Int = 14;
          let one: Int = 1;
          let c: Bool = true;
        again:
          lt c i n;
          ifnot c goto done;
          mul x x x;
          add i i one;
          goto again;
        done:
          setattr x x;
          return void;
        }
        setup { a: A active go prio 1; }
        """)
        code = main(["run", str(model)])
        captured = capsys.readouterr()
        assert code == EXIT_RUNTIME
        assert captured.out == ""
        assert captured.err == ("smm: runtime error: integer overflow in "
                                "'mul' [oid=0, tid=0, pc=7]\n")

    @pytest.mark.parametrize("literal, code", [
        ("9223372036854775807", EXIT_OK),
        ("-9223372036854775808", EXIT_OK),
        ("9223372036854775808", EXIT_VALIDATION),
        ("-9223372036854775809", EXIT_VALIDATION),
    ])
    def test_integer_literals_are_signed_64_bit(self, tmp_path, capsys,
                                               literal, code):
        model = tmp_path / "literal.smm"
        model.write_text(f"class A {{ attr n: Int = {literal}; }}\n"
                         f"setup {{ a: A passive; }}\n")
        assert main(["run", str(model)]) == code
        captured = capsys.readouterr()
        if code == EXIT_OK:
            assert f'("n",VInt {literal})' in captured.out
        else:
            assert captured.err == (f"{model}:1:25: integer outside the "
                                    f"signed 64-bit range\n")

    def test_objects_inherit_attributes(self, tmp_path, capsys):
        model = tmp_path / "inherited.smm"
        model.write_text("""
        class B { attr n: Int = 0; }
        class C extends B { }
        op C.go(): Void {
          let one: Int = 1;
          setattr n one;
          return void;
        }
        setup { c: C active go prio 1; }
        """)
        code = main(["run", str(model)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert 'C(id 0): [("n",VInt 1)]' in out

    def test_inherited_attributes_come_root_class_first(self, tmp_path,
                                                        capsys):
        model = tmp_path / "chain.smm"
        model.write_text("""
        class A { attr a: Int = 1; }
        class B extends A { attr b: Bool = true; }
        class C extends B { attr c: Int = 3; }
        op A.go(): Void {
          let x: C = null;
          new x C;
          return void;
        }
        setup { c: C active go prio 1 links [o]; o: A passive; }
        """)
        code = main(["run", str(model)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert ('C(id 0): [("a",VInt 1),("b",VBool true),("c",VInt 3),'
                '("o",XOID 1)]') in out
        assert 'C(id 2): [("a",VInt 1),("b",VBool true),("c",VInt 3)]' in out

    def test_inherited_reference_attribute_keeps_its_type(self, tmp_path,
                                                          capsys):
        model = tmp_path / "typed.smm"
        model.write_text("""
        class B { attr peer: B = null; }
        class C extends B { }
        class D { }
        op C.go(): Void {
          let d: D = null;
          new d D;
          setattr peer d;
          return void;
        }
        setup { c: C active go prio 1; }
        """)
        code = main(["run", str(model)])
        err = capsys.readouterr().err
        assert code == EXIT_RUNTIME
        assert err == ("smm: runtime error: type error writing attribute "
                       "'peer' [oid=0, tid=0, pc=2]\n")

    def test_a_call_result_obeys_the_local_kind_rule(self, tmp_path, capsys):
        # The answer lands while the caller resumes, before any action
        # runs, so the suffix has no pc.
        model = tmp_path / "result_kind.smm"
        model.write_text("""
        class A { }
        class B { }
        op B.f(): Bool { return true; }
        op A.go(): Void {
          let r: Int = 0;
          let b: B = null;
          loadattr b b;
          call b.f() -> r;
          return void;
        }
        setup { a: A active go prio 1 links [b]; b: B passive; }
        """)
        assert main(["run", str(model)]) == EXIT_RUNTIME
        assert capsys.readouterr().err == (
            "smm: runtime error: type error assigning local 'r' "
            "[oid=0, tid=0]\n")

    def test_a_return_literal_must_fit_the_return_type(self, tmp_path,
                                                       capsys):
        model = tmp_path / "return_literal.smm"
        model.write_text("class B { }\n"
                         "op B.f(): Int { return true; }\n"
                         "setup { b: B active f prio 1; }\n")
        assert main(["run", str(model)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"{model}:2:17: method B.f: action 0 returns a value that does "
            f"not fit return type Int\n")

    def test_a_returned_local_must_fit_the_return_type(self, tmp_path,
                                                       capsys):
        model = tmp_path / "return_local.smm"
        model.write_text("class B { }\n"
                         "op B.f(): Int { let x: Bool = true; return x; }\n"
                         "setup { b: B active f prio 1; }\n")
        assert main(["run", str(model)]) == EXIT_RUNTIME
        assert capsys.readouterr().err == (
            "smm: runtime error: 'f' returns a value that does not fit its "
            "return type Int [oid=0, tid=0, pc=1]\n")

    @pytest.mark.parametrize("action", ["call b.f() -> r",
                                        "send b.f() prio 1"],
                             ids=["call", "signal"])
    def test_a_failed_handler_dispatch_names_its_thread(self, tmp_path,
                                                        capsys, action):
        # Only C implements f, so the handler that b (oid 0) would start
        # for it, thread 1, has no method; no action ran, so no pc.
        model = tmp_path / "no_method.smm"
        model.write_text(f"""
        class A {{ }}
        class B {{ }}
        class C {{ }}
        op C.f(): Void {{ return void; }}
        op A.go(): Void {{
          let b: B = null;
          loadattr b b;
          {action};
          return void;
        }}
        setup {{ b: B passive; a: A active go prio 1 links [b]; }}
        """)
        assert main(["run", str(model)]) == EXIT_RUNTIME
        assert capsys.readouterr().err == (
            "smm: runtime error: no class of 'B' implements f(): Void "
            "[oid=0, tid=1]\n")

    # A driver (oid 0) calls a.go(), so the failing handler runs as thread 1
    # of object 1; the suffix names that object, thread and body index.
    RUNTIME_ERROR_MODEL = """
    class A {{ attr n: Int = 0; }}
    class D {{ }}
    op D.main(): Void {{
      let a: A = null;
      loadattr a a;
      call a.go() -> r;
      return void;
    }}
    op A.go(): Void {{
      let i: Int = 0;
    {body}
    }}
    op A.put(p: Int): Void {{ return void; }}
    setup {{ d: D active main prio 1 links [a]; a: A passive; }}
    """

    @pytest.mark.parametrize("body, message", [
        ("let t: A = null; call t.go() -> r; return void;",
         "call through null reference 't' [oid=1, tid=1, pc=2]"),
        ("let t: A = null; send t.go() prio 1; return void;",
         "send through null reference 't' [oid=1, tid=1, pc=2]"),
        ("set i true; return void;",
         "type error assigning local 'i' [oid=1, tid=1, pc=1]"),
        ("let b: Bool = true; add i i b; return void;",
         "local 'b' is not an integer [oid=1, tid=1, pc=2]"),
        ("top: ifnot i goto top; return void;",
         "branch condition 'i' is not a boolean [oid=1, tid=1, pc=1]"),
        ("let b: Bool = true; setattr n b; return void;",
         "type error writing attribute 'n' [oid=1, tid=1, pc=2]"),
        ("let i: Int = 1; return void;",
         "local 'i' already exists [oid=1, tid=1, pc=1]"),
        ("add i i i;",
         "fell off the end of 'go' without a return [oid=1, tid=1, pc=2]"),
        ("let t: A = null; new t A; let x: Bool = true; call t.put(x) -> r; "
         "return void;",
         "argument 0 of 'put' does not fit type Int [oid=1, tid=1, pc=4]"),
        ("call i.go() -> r; return void;",
         "local 'i' is not an object reference [oid=1, tid=1, pc=1]"),
    ], ids=["null-target", "null-send-target", "local-type", "int-operand", "bool-condition",
            "attr-type", "duplicate-let", "fell-off-the-end", "argument-type",
            "int-target"])
    def test_runtime_error_line(self, tmp_path, capsys, body, message):
        model = tmp_path / "fails.smm"
        model.write_text(self.RUNTIME_ERROR_MODEL.format(body=body))
        code = main(["run", str(model)])
        captured = capsys.readouterr()
        assert code == EXIT_RUNTIME
        assert captured.err == f"smm: runtime error: {message}\n"

    def test_unknown_strategy_is_a_usage_error(self, capsys):
        code = main(["run", PRODCONS, "--scheduler", "fifo"])
        capsys.readouterr()
        assert code == EXIT_USAGE

    def test_unknown_flag_is_a_usage_error(self, capsys):
        code = main(["run", PRODCONS, "--frobnicate"])
        capsys.readouterr()
        assert code == EXIT_USAGE

    def test_missing_subcommand_is_a_usage_error(self, capsys):
        code = main([])
        capsys.readouterr()
        assert code == EXIT_USAGE
