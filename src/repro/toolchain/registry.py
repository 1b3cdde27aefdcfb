"""Language → toolchain resolution."""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from repro._errors import ToolchainNotFound
from repro.toolchain.base import Toolchain
from repro.toolchain.real import (
    COMPILE_OUTCOMES,
    GccToolchain,
    GxxToolchain,
    JavacToolchain,
    _CCompilerBase,
)
from repro.toolchain.simulated import (
    SimulatedCToolchain,
    SimulatedCppToolchain,
    SimulatedJavaToolchain,
)

__all__ = ["infer_language", "ToolchainRegistry"]

_EXTENSIONS = {
    ".c": "c",
    ".cc": "cpp",
    ".cpp": "cpp",
    ".cxx": "cpp",
    ".java": "java",
}


def infer_language(path: str | Path) -> Optional[str]:
    """Language key from a file name, or None when unknown."""
    return _EXTENSIONS.get(Path(path).suffix.lower())


class ToolchainRegistry:
    """Ordered candidate toolchains per language, resolved by availability.

    The default registry prefers the real compilers and falls back to
    the simulated ones, so the same portal code runs on developer
    machines (with gcc) and in hermetic CI (without).  New languages
    plug in via :meth:`register` — the "framework for further expansion"
    the paper calls for.
    """

    def __init__(self, prefer_real: bool = True) -> None:
        self._chains: dict[str, list[Toolchain]] = {}
        self._extensions: dict[str, str] = dict(_EXTENSIONS)
        real: list[Toolchain] = [GccToolchain(), GxxToolchain(), JavacToolchain()]
        sim: list[Toolchain] = [SimulatedCToolchain(), SimulatedCppToolchain(), SimulatedJavaToolchain()]
        ordered = real + sim if prefer_real else sim + real
        for tc in ordered:
            self.register(tc)

    def register(self, toolchain: Toolchain, extensions: tuple[str, ...] = ()) -> None:
        """Append a candidate for its language.

        ``extensions`` optionally teaches this registry new file
        extensions (e.g. ``(".py",)``) so :meth:`resolve_for` can route
        them — the runtime path for adding a language to a live portal.
        """
        self._chains.setdefault(toolchain.language, []).append(toolchain)
        for ext in extensions:
            self._extensions[ext.lower()] = toolchain.language

    def languages(self) -> list[str]:
        """Languages with at least one registered candidate."""
        return sorted(self._chains)

    def resolve(self, language: str) -> Toolchain:
        """First *available* candidate for ``language``.

        Raises :class:`ToolchainNotFound` for unknown languages or when
        every candidate reports unavailable.
        """
        candidates = self._chains.get(language)
        if not candidates:
            raise ToolchainNotFound(
                f"no toolchain registered for language {language!r} "
                f"(known: {', '.join(self.languages())})"
            )
        for tc in candidates:
            if tc.available():
                return tc
        raise ToolchainNotFound(f"no available toolchain for language {language!r}")

    def compile_counts(self) -> dict[str, int]:
        """Compile outcomes summed over the registered gcc/g++ toolchains."""
        totals = dict.fromkeys(COMPILE_OUTCOMES, 0)
        for chain in self._chains.values():
            for tc in chain:
                if isinstance(tc, _CCompilerBase):
                    for outcome, n in tc.counts.items():
                        totals[outcome] += n
        return totals

    def infer(self, path: str | Path) -> Optional[str]:
        """Language from a file name, including runtime-registered extensions."""
        return self._extensions.get(Path(path).suffix.lower())

    def resolve_for(self, path: str | Path) -> Toolchain:
        """Resolve from a file name's extension."""
        lang = self.infer(path)
        if lang is None:
            raise ToolchainNotFound(f"cannot infer language from {Path(path).name!r}")
        return self.resolve(lang)
