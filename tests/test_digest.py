"""The output bytes of tools/pipeline_digest.py's fixed pipeline, pinned:
the pipeline runs in-process in a temporary directory and every file's
SHA-256 must equal the line committed in pipeline_digest.txt. The lines
hold for the numpy build named in that file's header; on another build
the test skips, naming what differs."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = Path(__file__).with_name("pipeline_digest.txt")


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "pipeline_digest", ROOT / "tools" / "pipeline_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_expected(fields) -> tuple:
    """(header field -> value for the names in fields, path -> sha256)."""
    header, digest_lines = {}, []
    for line in EXPECTED.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition(": ")
            if key in fields:
                header[key] = value
        elif line:
            digest_lines.append(line)
    return header, by_path(digest_lines)


def by_path(lines) -> dict:
    """path -> sha256 of `sha256  path` lines."""
    return {path: sha for sha, path in (line.split("  ", 1) for line in lines)}


def changed_paths(expected: dict, actual: dict) -> list:
    """One message per path whose digest differs, is missing or is new."""
    out = []
    for path in sorted(expected.keys() | actual.keys()):
        if path not in actual:
            out.append(f"{path}: not written")
        elif path not in expected:
            out.append(f"{path}: new file")
        elif actual[path] != expected[path]:
            out.append(f"{path}: {expected[path][:12]} -> {actual[path][:12]}")
    return out


def test_pipeline_bytes_match_committed_digest(tmp_path):
    tool = load_tool()
    build = tool.numpy_build()
    header, expected = read_expected(build)
    for field, value in build.items():
        if header.get(field) != value:
            pytest.skip(f"{field} differs: the digest was printed with "
                        f"{header.get(field)!r}, this build is {value!r}")
    changed = changed_paths(expected, by_path(tool.digest_lines(tmp_path)))
    assert not changed, "output bytes moved:\n" + "\n".join(changed)
