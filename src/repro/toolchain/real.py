"""Real compiler wrappers: gcc, g++, javac.

gcc and g++ remember their successful compiles (ccache's "direct
mode"): the compiler's own ``-MD`` dependency list names every file it
read, and a later compile of the same artifact with the same argv runs
no compiler while the artifact stats the same and those files hash the
same.  javac has no such list, so it always runs.
"""

from __future__ import annotations

import hashlib
import os
import re
import shutil
import subprocess
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator, Optional

from repro.toolchain.base import Artifact, CompileResult, Toolchain

__all__ = ["COMPILE_OUTCOMES", "GccToolchain", "GxxToolchain", "JavacToolchain"]

_COMPILE_TIMEOUT_S = 60

#: cap on remembered compiles per toolchain (oldest evicted first).
_MAX_COMPILE_ENTRIES = 512

#: what a gcc/g++ compile came to: served from memory, compiled, or failed.
COMPILE_OUTCOMES = ("hit", "miss", "failed")

#: one dependency-file word: escaped spaces and ``#`` stay inside it.
_DEP_WORD = re.compile(r"(?:\\[ #]|\S)+")


def _invoke(toolchain: Toolchain, argv: list[str]) -> CompileResult:
    """Run a compiler; the result has its diagnostics but no artifact yet."""
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=_COMPILE_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return CompileResult(False, toolchain.language, toolchain.name,
                             diagnostics=f"compiler invocation failed: {exc}")
    diagnostics = (proc.stdout + proc.stderr).strip()
    return CompileResult(proc.returncode == 0, toolchain.language, toolchain.name,
                         diagnostics=diagnostics)


def _digest(paths: tuple[str, ...]) -> Optional[str]:
    """sha256 over the files' names and contents; ``None`` if one cannot be read."""
    h = hashlib.sha256()
    for path in paths:
        try:
            with open(path, "rb") as f:
                data = f.read()
        except OSError:
            return None
        h.update(b"%s\0%d\0" % (path.encode(), len(data)))
        h.update(data)
    return h.hexdigest()


def _stat(path: Path) -> Optional[tuple[int, int, int]]:
    """``(st_ino, st_size, st_mtime_ns)``, or ``None`` when the file is gone."""
    try:
        st = path.stat()
    except OSError:
        return None
    return st.st_ino, st.st_size, st.st_mtime_ns


def _dep_inputs(dep: Path) -> Optional[tuple[str, ...]]:
    """The prerequisites of the make rule gcc ``-MD`` wrote, as absolute
    paths; ``None`` when the file is missing or not one rule."""
    try:
        text = dep.read_text()
    except (OSError, UnicodeDecodeError):
        return None
    _, sep, rest = text.replace("\\\n", " ").partition(": ")
    if not sep:
        return None
    words = [re.sub(r"\\([ #])", r"\1", w).replace("$$", "$") for w in _DEP_WORD.findall(rest)]
    if not words or any(w.endswith(":") for w in words):
        return None
    return tuple(os.path.abspath(w) for w in words)


@dataclass(frozen=True)
class _Compiled:
    """A remembered successful compile of one artifact path."""

    argv: tuple[str, ...]
    inputs: tuple[str, ...]
    digest: str
    stat: tuple[int, int, int]
    result: CompileResult

    def fresh(self, argv: tuple[str, ...], out: Path) -> bool:
        """Same command, artifact untouched, every input byte-identical."""
        return argv == self.argv and _stat(out) == self.stat and _digest(self.inputs) == self.digest


class _CCompilerBase(Toolchain):
    """Shared machinery for gcc/g++, including the compile memory.

    One entry per artifact path: the argv, the files gcc read, a sha256
    over them, the artifact's stat and the result.  Failed compiles and
    unreadable dependency files are never remembered.  The artifact sits
    in the submitting user's home, so entries are never shared between
    users.  Compiles of one path run one at a time, so a duplicate
    waits for the first and then finds its entry.
    """

    compiler = ""
    std_flag = ""

    def __init__(self) -> None:
        #: compile outcomes (:data:`COMPILE_OUTCOMES`); plain ints the
        #: metrics registry reads at scrape time.
        self.counts = dict.fromkeys(COMPILE_OUTCOMES, 0)
        self._memo: dict[Path, _Compiled] = {}
        self._path_locks: dict[Path, list] = {}  # path → [lock, holders and waiters]
        self._lock = threading.Lock()  # guards the three dicts above

    def available(self) -> bool:
        return shutil.which(self.compiler) is not None

    def compile(self, source: Path, workdir: Path) -> CompileResult:
        workdir.mkdir(parents=True, exist_ok=True)
        out = workdir / (source.stem + ".bin")
        dep = workdir / (source.stem + ".d")
        argv = (self.compiler, self.std_flag, "-O2", "-Wall", "-MD", "-MF", str(dep),
                "-o", str(out), str(source), "-lpthread", "-lm")
        with self._serialised(out):
            with self._lock:
                entry = self._memo.get(out)
            if entry is not None and entry.fresh(argv, out):
                self._tally(out, "hit")
                return replace(entry.result, warnings=list(entry.result.warnings))
            dep.unlink(missing_ok=True)
            before = _digest((str(source),))
            result = _invoke(self, list(argv))
            if not result.ok:
                self._tally(out, "failed")
                return result
            result.warnings = [l for l in result.diagnostics.splitlines() if "warning:" in l]
            result.artifact = Artifact(kind="binary", path=out, language=self.language)
            self._tally(out, "miss", self._remember(argv, source, out, dep, before, result))
            return result

    def _remember(self, argv: tuple[str, ...], source: Path, out: Path, dep: Path,
                  before: Optional[str], result: CompileResult) -> Optional[_Compiled]:
        """The entry for a fresh compile, or ``None`` when its inputs
        cannot be told (dependency file unreadable, source missing from
        it, an input unreadable, or the source edited while gcc ran)."""
        inputs = _dep_inputs(dep)
        if inputs is None or os.path.abspath(source) not in inputs:
            return None
        digest, stat = _digest(inputs), _stat(out)
        if digest is None or stat is None or _digest((str(source),)) != before:
            return None
        return _Compiled(argv, inputs, digest, stat,
                         replace(result, warnings=list(result.warnings)))

    def _tally(self, out: Path, outcome: str, entry: Optional[_Compiled] = None) -> None:
        """Count the outcome; after gcc ran, ``entry`` replaces what ``out``
        had (``None`` forgets it)."""
        with self._lock:
            self.counts[outcome] += 1
            if outcome != "hit":
                self._memo.pop(out, None)
                if entry is not None:
                    self._memo[out] = entry
                    while len(self._memo) > _MAX_COMPILE_ENTRIES:
                        self._memo.pop(next(iter(self._memo)))

    @contextmanager
    def _serialised(self, out: Path) -> Iterator[None]:
        """Hold ``out``'s own lock; the lock is dropped once nobody waits."""
        with self._lock:
            slot = self._path_locks.setdefault(out, [threading.Lock(), 0])
            slot[1] += 1
        try:
            with slot[0]:
                yield
        finally:
            with self._lock:
                slot[1] -= 1
                if not slot[1]:
                    del self._path_locks[out]


class GccToolchain(_CCompilerBase):
    """C via gcc (C11)."""

    language = "c"
    name = "gcc"
    compiler = "gcc"
    std_flag = "-std=c11"


class GxxToolchain(_CCompilerBase):
    """C++ via g++ (C++17)."""

    language = "cpp"
    name = "g++"
    compiler = "g++"
    std_flag = "-std=c++17"


_JAVA_PUBLIC_CLASS = re.compile(r"\bpublic\s+(?:final\s+|abstract\s+)?class\s+(\w+)")
_JAVA_ANY_CLASS = re.compile(r"\bclass\s+(\w+)")


class JavacToolchain(Toolchain):
    """Java via javac; runs with ``java -cp <dir> MainClass``."""

    language = "java"
    name = "javac"

    def available(self) -> bool:
        return shutil.which("javac") is not None and shutil.which("java") is not None

    def compile(self, source: Path, workdir: Path) -> CompileResult:
        workdir.mkdir(parents=True, exist_ok=True)
        result = _invoke(self, ["javac", "-d", str(workdir), str(source)])
        if not result.ok:
            return result
        main_class = self._main_class(source)
        result.artifact = Artifact(
            kind="java-class", path=workdir / f"{main_class}.class", language="java",
            entry=main_class,
        )
        return result

    @staticmethod
    def _main_class(source: Path) -> str:
        text = source.read_text(errors="replace")
        m = _JAVA_PUBLIC_CLASS.search(text) or _JAVA_ANY_CLASS.search(text)
        return m.group(1) if m else source.stem
