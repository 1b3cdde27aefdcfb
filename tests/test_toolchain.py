"""Toolchains: registry resolution, simulated compilers, real compilers,
and the gcc/g++ compile memory."""

import subprocess
import sys
import threading
import time

import pytest

from repro._errors import ToolchainNotFound
from repro.toolchain import (
    GccToolchain,
    GxxToolchain,
    JavacToolchain,
    SimulatedCppToolchain,
    SimulatedCToolchain,
    SimulatedJavaToolchain,
    ToolchainRegistry,
    infer_language,
)
from tests.conftest import has_gcc, has_javac
from tests.test_telemetry import _scrape_value, wsgi_get

HELLO_C = '#include <stdio.h>\nint main(void) { printf("hi there\\n"); return 0; }\n'
HELLO_CPP = '#include <iostream>\nint main() { std::cout << "cpp says hi" << std::endl; return 0; }\n'
HELLO_JAVA = (
    "public class Hello {\n"
    '  public static void main(String[] args) { System.out.println("java says hi"); }\n'
    "}\n"
)


class TestLanguageInference:
    @pytest.mark.parametrize(
        "name,lang",
        [("a.c", "c"), ("b.cpp", "cpp"), ("c.cc", "cpp"), ("d.cxx", "cpp"),
         ("E.java", "java"), ("x.py", None), ("noext", None)],
    )
    def test_extension_mapping(self, name, lang):
        assert infer_language(name) == lang


class TestRegistry:
    def test_known_languages(self):
        reg = ToolchainRegistry()
        assert set(reg.languages()) == {"c", "cpp", "java"}

    def test_resolve_always_finds_something(self):
        # Even with no compilers installed the simulated chains answer.
        reg = ToolchainRegistry(prefer_real=False)
        for lang in ("c", "cpp", "java"):
            assert reg.resolve(lang).name.startswith("sim-")

    def test_unknown_language_raises(self):
        with pytest.raises(ToolchainNotFound):
            ToolchainRegistry().resolve("fortran")

    def test_resolve_for_uses_extension(self):
        reg = ToolchainRegistry(prefer_real=False)
        assert reg.resolve_for("prog.java").language == "java"
        with pytest.raises(ToolchainNotFound):
            reg.resolve_for("prog.xyz")

    def test_custom_registration(self):
        class Cobol(SimulatedCToolchain):
            language = "cobol"
            name = "sim-cobol"

        reg = ToolchainRegistry()
        reg.register(Cobol())
        assert reg.resolve("cobol").name == "sim-cobol"


class TestSimulatedToolchains:
    def test_c_stub_reproduces_output(self, tmp_path):
        src = tmp_path / "hello.c"
        src.write_text(HELLO_C)
        result = SimulatedCToolchain().compile(src, tmp_path / "build")
        assert result.ok
        out = subprocess.run(result.artifact.run_argv(), capture_output=True, text=True)
        assert out.stdout == "hi there\n" and out.returncode == 0

    def test_cpp_stub_reproduces_output(self, tmp_path):
        src = tmp_path / "hello.cpp"
        src.write_text(HELLO_CPP)
        result = SimulatedCppToolchain().compile(src, tmp_path / "build")
        assert result.ok
        out = subprocess.run(result.artifact.run_argv(), capture_output=True, text=True)
        assert "cpp says hi" in out.stdout

    def test_java_stub_reproduces_output(self, tmp_path):
        src = tmp_path / "Hello.java"
        src.write_text(HELLO_JAVA)
        result = SimulatedJavaToolchain().compile(src, tmp_path / "build")
        assert result.ok
        out = subprocess.run(result.artifact.run_argv(), capture_output=True, text=True)
        assert out.stdout == "java says hi\n"

    def test_unbalanced_braces_fail_with_line_numbers(self, tmp_path):
        src = tmp_path / "bad.c"
        src.write_text("int main(void) {\n  printf(\"x\");\n")
        result = SimulatedCToolchain().compile(src, tmp_path / "build")
        assert not result.ok
        assert "line 1" in result.diagnostics and "unclosed" in result.diagnostics

    def test_missing_entry_point_fails(self, tmp_path):
        src = tmp_path / "lib.c"
        src.write_text("int helper(void) { return 1; }\n")
        result = SimulatedCToolchain().compile(src, tmp_path / "build")
        assert not result.ok and "entry point" in result.diagnostics

    def test_braces_in_strings_and_comments_ignored(self, tmp_path):
        src = tmp_path / "tricky.c"
        src.write_text(
            '// a comment with { unbalanced\n'
            '/* and a block } comment { */\n'
            'int main(void) { printf("brace } in string {"); return 0; }\n'
        )
        result = SimulatedCToolchain().compile(src, tmp_path / "build")
        assert result.ok, result.diagnostics

    def test_java_requires_static_main(self, tmp_path):
        src = tmp_path / "NoMain.java"
        src.write_text("public class NoMain { void run() {} }\n")
        result = SimulatedJavaToolchain().compile(src, tmp_path / "build")
        assert not result.ok

    def test_raise_on_error_raises_compilationerror(self, tmp_path):
        from repro._errors import CompilationError

        src = tmp_path / "bad.c"
        src.write_text("int main( {")
        result = SimulatedCToolchain().compile(src, tmp_path / "build")
        with pytest.raises(CompilationError) as e:
            result.raise_on_error()
        assert e.value.diagnostics


@pytest.mark.skipif(not has_gcc(), reason="gcc not installed")
class TestRealC:
    def test_compile_and_run(self, tmp_path):
        src = tmp_path / "hello.c"
        src.write_text(HELLO_C)
        result = GccToolchain().compile(src, tmp_path / "build")
        assert result.ok, result.diagnostics
        out = subprocess.run(result.artifact.run_argv(), capture_output=True, text=True)
        assert out.stdout == "hi there\n"

    def test_compile_error_reported(self, tmp_path):
        src = tmp_path / "bad.c"
        src.write_text("int main(void) { undeclared_fn(; }\n")
        result = GccToolchain().compile(src, tmp_path / "build")
        assert not result.ok and "error" in result.diagnostics.lower()

    def test_warnings_collected(self, tmp_path):
        src = tmp_path / "warn.c"
        src.write_text("#include <stdio.h>\nint main(void){ int unused; printf(\"x\\n\"); return 0; }\n")
        result = GccToolchain().compile(src, tmp_path / "build")
        assert result.ok and result.warnings

    def test_cpp_real(self, tmp_path):
        src = tmp_path / "hello.cpp"
        src.write_text(HELLO_CPP)
        result = GxxToolchain().compile(src, tmp_path / "build")
        assert result.ok
        out = subprocess.run(result.artifact.run_argv(), capture_output=True, text=True)
        assert "cpp says hi" in out.stdout


@pytest.fixture
def gcc_spawns(monkeypatch):
    """Argvs of every gcc/g++ the code under test starts (a 20 ms pause per
    spawn widens the window for racing compiles)."""
    spawned = []
    real_run = subprocess.run

    def counting_run(argv, *args, **kwargs):
        if argv[0] in ("gcc", "g++"):
            spawned.append(argv)
            time.sleep(0.02)
        return real_run(argv, *args, **kwargs)

    monkeypatch.setattr(subprocess, "run", counting_run)
    return spawned


def run_binary(result) -> str:
    return subprocess.run(result.artifact.run_argv(), capture_output=True, text=True).stdout


@pytest.mark.skipif(not has_gcc(), reason="gcc not installed")
class TestCompileCache:
    INCLUDES_H = '#include <stdio.h>\n#include "h.h"\nint main(void){ printf("%d\\n", V); return 0; }\n'

    def test_unchanged_source_spawns_no_compiler(self, tmp_path, gcc_spawns):
        src = tmp_path / "my dir" / "warn.c"  # the dependency file escapes the space
        src.parent.mkdir()
        src.write_text("#include <stdio.h>\nint main(void){ int unused; puts(\"x\"); return 0; }\n")
        tc = GccToolchain()
        first = tc.compile(src, tmp_path / "build")
        second = tc.compile(src, tmp_path / "build")
        assert len(gcc_spawns) == 1
        assert first.ok and first.warnings and second == first
        assert second.warnings is not first.warnings  # callers may not share the list
        assert tc.counts == {"hit": 1, "miss": 1, "failed": 0}
        assert run_binary(second) == "x\n"

    def test_edited_header_recompiles(self, tmp_path, gcc_spawns):
        src, header = tmp_path / "main.c", tmp_path / "h.h"
        src.write_text(self.INCLUDES_H)
        header.write_text("#define V 1\n")
        tc = GccToolchain()
        assert run_binary(tc.compile(src, tmp_path / "build")) == "1\n"
        header.write_text("#define V 2\n")
        assert run_binary(tc.compile(src, tmp_path / "build")) == "2\n"
        assert len(gcc_spawns) == 2
        tc.compile(src, tmp_path / "build")
        assert len(gcc_spawns) == 2

    def test_deleted_or_overwritten_binary_recompiles(self, tmp_path, gcc_spawns):
        src = tmp_path / "lab.c"
        src.write_text(HELLO_C)
        cpp = tmp_path / "lab.cpp"
        cpp.write_text(HELLO_CPP)
        build, gcc = tmp_path / "build", GccToolchain()
        binary = gcc.compile(src, build).artifact.path
        binary.unlink()
        assert run_binary(gcc.compile(src, build)) == "hi there\n"
        assert GxxToolchain().compile(cpp, build).artifact.path == binary  # rewrites lab.bin
        assert run_binary(gcc.compile(src, build)) == "hi there\n"
        assert [argv[0] for argv in gcc_spawns] == ["gcc", "gcc", "g++", "gcc"]
        assert gcc.counts == {"hit": 0, "miss": 3, "failed": 0}

    def test_failed_compile_is_retried(self, tmp_path, gcc_spawns):
        src = tmp_path / "bad.c"
        src.write_text("int main(void) { undeclared_fn(; }\n")
        tc = GccToolchain()
        results = [tc.compile(src, tmp_path / "build") for _ in range(2)]
        assert not any(r.ok for r in results) and len(gcc_spawns) == 2
        src.write_text(HELLO_C)
        assert tc.compile(src, tmp_path / "build").ok
        assert tc.counts == {"hit": 0, "miss": 1, "failed": 2}

    def test_source_edited_while_gcc_runs_is_not_remembered(self, tmp_path, monkeypatch):
        src = tmp_path / "lab.c"
        src.write_text(HELLO_C)
        real_run = subprocess.run

        def run_then_edit(argv, *args, **kwargs):
            proc = real_run(argv, *args, **kwargs)
            src.write_text(HELLO_C.replace("hi there", "edited"))
            return proc

        tc = GccToolchain()
        monkeypatch.setattr(subprocess, "run", run_then_edit)
        tc.compile(src, tmp_path / "build")
        monkeypatch.setattr(subprocess, "run", real_run)
        assert run_binary(tc.compile(src, tmp_path / "build")) == "edited\n"
        assert tc.counts == {"hit": 0, "miss": 2, "failed": 0}

    def test_concurrent_compiles_of_one_path_spawn_one_compiler(self, tmp_path, gcc_spawns):
        src = tmp_path / "race.c"
        src.write_text(HELLO_C)
        tc, results = GccToolchain(), []
        start = threading.Barrier(4)

        def compile_once():
            start.wait(timeout=10)
            results.append(tc.compile(src, tmp_path / "build"))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=compile_once) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 4 and all(r.ok for r in results)
        assert len(gcc_spawns) == 1
        assert tc.counts == {"hit": 3, "miss": 1, "failed": 0}


LAB_C = '#include <stdio.h>\nint main(int argc, char **argv){ printf("v%s %s\\n", "VERSION", argc > 1 ? argv[1] : "-"); return 0; }\n'


@pytest.mark.skipif(not has_gcc(), reason="gcc not installed")
class TestPortalCompileCache:
    """Compile, submit, resubmit: one gcc per distinct source content."""

    def run(self, client, path="lab.c", **kwargs):
        job_id = client.submit_job(path, **kwargs)["job"]["id"]
        assert client.wait_for_job(job_id, timeout=60)["state"] == "completed"
        return client.job_output(job_id)["stdout"]

    def test_compile_submit_resubmit_spawns_one_gcc_per_source(
        self, portal_app, student_client, gcc_spawns
    ):
        student_client.write_file("lab.c", LAB_C.replace("VERSION", "1"))
        assert student_client.compile("lab.c")["ok"]
        assert self.run(student_client, args=["a"]) == ["v1 a"]
        assert len(gcc_spawns) == 1
        assert self.run(student_client, args=["b"]) == ["v1 b"]
        assert len(gcc_spawns) == 1
        student_client.write_file("lab.c", LAB_C.replace("VERSION", "2"))
        assert self.run(student_client, args=["c"]) == ["v2 c"]
        assert self.run(student_client) == ["v2 -"]
        assert len(gcc_spawns) == 2

        _, _, body = wsgi_get(portal_app, "/metrics")
        text = body.decode()
        assert _scrape_value(text, 'repro_compile_total{outcome="hit"}') == 3
        assert _scrape_value(text, 'repro_compile_total{outcome="miss"}') == 2
        assert _scrape_value(text, 'repro_compile_total{outcome="failed"}') == 0


@pytest.mark.skipif(not has_javac(), reason="javac/java not installed")
class TestRealJava:
    def test_compile_and_run(self, tmp_path):
        src = tmp_path / "Hello.java"
        src.write_text(HELLO_JAVA)
        result = JavacToolchain().compile(src, tmp_path / "build")
        assert result.ok, result.diagnostics
        assert result.artifact.entry == "Hello"
        out = subprocess.run(result.artifact.run_argv(), capture_output=True, text=True)
        assert out.stdout.strip() == "java says hi"

    def test_registry_prefers_real_when_available(self):
        reg = ToolchainRegistry(prefer_real=True)
        assert reg.resolve("java").name == "javac"
