from __future__ import annotations

import json

import pytest

from smm.cli import (
    EXIT_BLOCKED, EXIT_OK, EXIT_RUNTIME, EXIT_STEP_LIMIT, EXIT_USAGE,
    EXIT_VALIDATION, main,
)

from conftest import MODELS_DIR

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

    def test_attribute_write_error_carries_one_context_suffix(self, tmp_path,
                                                              capsys):
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
        err = capsys.readouterr().err
        assert code == EXIT_RUNTIME
        assert err == ("smm: runtime error: object 0 (C) has no attribute "
                       "'n' [oid=0, tid=0, pc=1]\n")

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
    setup {{ d: D active main prio 1 links [a]; a: A passive; }}
    """

    @pytest.mark.parametrize("body, message", [
        ("let t: A = null; call t.go() -> r; return void;",
         "call through null reference 't' [oid=1, tid=1, pc=2]"),
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
    ], ids=["null-target", "local-type", "int-operand", "bool-condition",
            "attr-type", "duplicate-let", "fell-off-the-end"])
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
