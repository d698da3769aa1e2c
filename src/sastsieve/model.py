"""Scanner-independent domain types shared by every stage of the pipeline,
and the rules for the paths a command reads and writes: ``as_path``,
``read_input``, ``check_outputs`` and ``write_whole``.

The types are immutable value objects; instances can be shared freely
between threads.
"""

from __future__ import annotations

import hashlib
import io
import os
import re
import stat
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterator, Mapping, TypeVar

TEST_CASE_PATTERN = re.compile(r"BenchmarkTest\d{5}")
_SURROGATE = re.compile("[\ud800-\udfff]")

T = TypeVar("T")

# The eleven benchmark categories with their canonical names. Any other code
# is rendered as "Other".
BENCHMARK_CWE_NAMES = {
    22: "Path Traversal",
    78: "Command Injection",
    79: "Cross-Site Scripting",
    89: "SQL Injection",
    90: "LDAP Injection",
    327: "Weak Cryptography",
    328: "Weak Hashing",
    330: "Weak Randomness",
    501: "Trust Boundary Violation",
    614: "Insecure Cookie",
    643: "XPath Injection",
}


@dataclass(frozen=True, order=True)
class TestCaseId:
    """Benchmark test-case identity, e.g. ``BenchmarkTest00001``."""

    value: str

    def __post_init__(self) -> None:
        if not TEST_CASE_PATTERN.fullmatch(self.value):
            raise ValueError(f"not a benchmark test-case id: {self.value!r}")

    def __str__(self) -> str:
        return self.value


def replace_surrogates(text: str) -> str:
    """``text`` with each lone surrogate, which UTF-8 cannot encode, made U+FFFD.

    A JSON escape such as ``\\ud800`` decodes to one; text from outside
    passes through here before anything needs to write it.
    """
    return text if text.isascii() else _SURROGATE.sub("\ufffd", text)


class ConfigError(ValueError):
    """A refused setting or input file; the message names the offending key."""


def as_path(key: str, value: object) -> Path:
    """``value`` as a path; ConfigError naming ``key`` when it is empty or holds a NUL."""
    text = str(value)
    if not text:  # Path("") would be the working directory
        raise ConfigError(f"{key}: expected a path, got an empty value")
    if "\0" in text:  # no file name holds one
        raise ConfigError(f"{key}: a path cannot hold a NUL character, got {text!r}")
    return Path(text)


def read_input(
    key: str, path: Path | str | None, parse: Callable[[str], T], errors: str = "strict"
) -> T | None:
    """Parse a UTF-8 input file, less any BOM; ConfigError, naming the key and file, when that fails.

    This is the one place an input file is opened and decoded; no path reads
    as None, and ``as_path`` refuses an empty one. With ``errors="replace"``,
    bytes that are not UTF-8 read as U+FFFD.
    """
    if path is None:
        return None
    file = as_path(key, path)
    try:
        return parse(file.read_text(encoding="utf-8-sig", errors=errors))
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"{key} {path}: {exc}") from exc


def _file_key(path: Path) -> object:
    """What names one file: its device and inode if it exists, else its resolved path."""
    real = os.path.realpath(path)
    try:
        status = os.stat(real)
    except OSError:
        return real
    return status.st_dev, status.st_ino


def check_outputs(inputs: Mapping[str, Path | str | None], /, **outputs: Path | str | None) -> None:
    """Refuse an empty path, and an output path that exists but is not a
    regular file, another output of the same command or one of its ``inputs``.

    Two paths clash when they name one file: through ``..``, a symbolic
    link or, for a file that exists, a hard link.
    """
    # Each file's first key and its value as written, to name both in a clash.
    seen = {_file_key(as_path(key, value)): f"{key}: {value}" for key, value in inputs.items() if value is not None}
    for key, value in outputs.items():
        if value is None:
            continue
        path = as_path(key, value)
        file = _file_key(path)
        if file in seen:
            raise ConfigError(f"{key}: {value} is the same file as {seen[file]}")
        if path.is_dir():
            raise ConfigError(f"{key}: {value} is a directory")
        # write_whole would rename a file over a device or socket, not write into it.
        if path.exists() and not path.is_file():
            raise ConfigError(f"{key}: {value} is not a regular file")
        seen[file] = f"{key}: {value}"


def write_whole(path: Path | str, data: bytes) -> None:
    """Replace the file ``path`` names with ``data``, whole or not at all.

    The one place an output file is written: the bytes go to a temporary
    file beside the target, which is renamed over it, so a killed run or a
    full disk leaves the old file and no partial one. A symbolic link stays
    a link and its target is replaced, keeping its permission bits; missing
    parent directories are created. Not fsynced: a power cut is not covered.
    """
    target = Path(os.path.realpath(path))
    target.parent.mkdir(parents=True, exist_ok=True)
    partial = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        partial.write_bytes(data)
        if target.exists():  # a new file gets the bits the umask leaves
            os.chmod(partial, stat.S_IMODE(target.stat().st_mode))
        os.replace(partial, target)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def record_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for each line that is neither blank nor a ``#`` comment."""
    # Lines end only at LF, CR and CRLF; str.splitlines also splits at form feeds.
    for lineno, line in enumerate(io.StringIO(text, newline=""), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, stripped


def test_id_from_path(file_path: str) -> TestCaseId | None:
    """Extract the test-case id from a file path, or None.

    Matching looks only at the stem of the final path segment, so
    ``src/main/java/.../BenchmarkTest00001.java`` maps to
    ``BenchmarkTest00001`` and anything else maps to None. Total function:
    never raises, never returns a malformed id.
    """
    segment = re.split(r"[/\\]", file_path)[-1]
    dot = segment.rfind(".")
    stem = segment[:dot] if dot > 0 else segment
    if TEST_CASE_PATTERN.fullmatch(stem):
        return TestCaseId(stem)
    return None


@dataclass(frozen=True, order=True)
class CweCategory:
    """A CWE category keyed by numeric code; code 0 means "no CWE".

    The name is derived from the code, so benchmark categories always carry
    their canonical name and everything else is "Other".
    """

    code: int
    name: str = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.code < 0:
            raise ValueError(f"CWE code must be non-negative, got {self.code}")
        object.__setattr__(self, "name", BENCHMARK_CWE_NAMES.get(self.code, "Other"))

    @property
    def label(self) -> str:
        return f"CWE-{self.code}"


class Severity(str, Enum):
    INFO = "info"
    WARNING = "warning"
    ERROR = "error"


class Classification(str, Enum):
    TRUE_POSITIVE = "true_positive"
    FALSE_POSITIVE = "false_positive"


class Provenance(str, Enum):
    LLM_DECISION = "llm_decision"
    FAIL_OPEN = "fail_open"


class FailOpenCause(str, Enum):
    TRANSPORT_ERROR = "transport_error"
    TIMEOUT = "timeout"
    MALFORMED_RESPONSE = "malformed_response"
    MISSING_ENTRY = "missing_entry"
    SOURCE_UNAVAILABLE = "source_unavailable"


@dataclass(frozen=True)
class Finding:
    """One normalized scanner alert."""

    id: str
    test_id: TestCaseId | None = field(init=False)  # from the file path
    cwe: CweCategory
    file_path: str
    start_line: int
    end_line: int
    severity: Severity
    description: str
    origin: str

    def __post_init__(self) -> None:
        if self.start_line < 1:
            raise ValueError(f"start_line must be >= 1, got {self.start_line}")
        if self.end_line < self.start_line:
            raise ValueError(
                f"end_line {self.end_line} precedes start_line {self.start_line}"
            )
        object.__setattr__(self, "test_id", test_id_from_path(self.file_path))


def finding_id(origin: str, file_path: str, start_line: int, cwe_code: int) -> str:
    """Stable identity for a finding; replay fixtures depend on it not changing."""
    key = "\x1f".join((origin, file_path, str(start_line), str(cwe_code)))
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class Verdict:
    """The filter's decision on a finding plus how it was reached.

    The provenance follows from the cause: a verdict without one is the
    model's decision and carries its rationale; a fail-open verdict carries
    only its cause and always retains (classification true_positive).
    """

    classification: Classification
    provenance: Provenance = field(init=False)
    rationale: str | None = None
    cause: FailOpenCause | None = None

    def __post_init__(self) -> None:
        if self.cause is None:
            if self.rationale is None:
                raise ValueError("llm_decision verdict requires a rationale")
        elif self.classification is not Classification.TRUE_POSITIVE:
            raise ValueError("fail-open never suppresses a finding")
        elif self.rationale is not None:
            raise ValueError("fail_open verdict carries only a cause")
        object.__setattr__(self, "provenance", Provenance.LLM_DECISION if self.cause is None else Provenance.FAIL_OPEN)

    @classmethod
    def llm(cls, classification: Classification | str, rationale: str) -> "Verdict":
        return cls(Classification(classification), rationale=rationale)

    @classmethod
    def fail_open(cls, cause: FailOpenCause | str) -> "Verdict":
        return cls(Classification.TRUE_POSITIVE, cause=FailOpenCause(cause))

    @property
    def retained(self) -> bool:
        return self.classification is Classification.TRUE_POSITIVE


@dataclass(frozen=True)
class FilteredFinding:
    """A finding together with its verdict and the batch that reviewed it."""

    finding: Finding
    verdict: Verdict
    batch_index: int

    def __post_init__(self) -> None:
        if self.batch_index < 0:
            raise ValueError("batch_index must be non-negative")
