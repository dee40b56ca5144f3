"""A fixed-seed slice of the differential parser fuzz, at this checkout only:
each generated file parses alike from its str and its bytes, and every
failure is a ``TplecError``."""

import importlib.util
from pathlib import Path

import pytest

from tplec import errors, ingest

# the seeded case generator of benchmarks/fuzz_parsers.py
_SPEC = importlib.util.spec_from_file_location(
    "fuzz_parsers", Path(__file__).parents[1] / "benchmarks" / "fuzz_parsers.py"
)
fuzz_parsers = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fuzz_parsers)


@pytest.mark.parametrize("kind", fuzz_parsers.PARSERS)
def test_generated_files_parse_alike_from_str_and_bytes(kind):
    parse = getattr(ingest, fuzz_parsers.PARSERS[kind])
    for i, (text, data) in enumerate(fuzz_parsers.cases(kind, seed=0, n=100)):
        found = [fuzz_parsers.outcome(kind, parse, source) for source in (text, data)]
        for result, _ in found:
            name = result.get("error", ["TplecError"])[0]
            error = getattr(errors, name, Exception)
            assert issubclass(error, errors.TplecError), (i, result)
        if data == text.encode("utf-8", "surrogatepass") and _is_utf8(data):
            assert found[0] == found[1], i
        else:
            assert found[1][0]["error"][0] == "NotUtf8", i


def _is_utf8(data: bytes) -> bool:
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True
