"""Typed errors for bad arguments and non-finite fit inputs."""

import ast
import importlib
import math
from datetime import date
from pathlib import Path

import numpy as np
import pytest

import tplec
from tplec import (
    AbundanceTable,
    DeathsTable,
    PlecModel,
    PlFit,
    TplFit,
    accumulate,
    compute_asymptote,
    confidence_band,
    day_index_to_date,
    fit_cutoff,
    fit_loglog,
    fit_pl_growth,
    fit_plec,
    hill_number,
    predict_variance,
    resample_accumulation,
)
from tplec.errors import InvalidArgument, NonFiniteValue, TplecError

TABLE = AbundanceTable(("s1", "s2"), ("t1", "t2"), np.array([[1, 0], [2, 3]]))
DAY = (date(2021, 3, 1),)


@pytest.mark.parametrize(
    "call",
    [
        lambda: day_index_to_date(date(2021, 3, 1), 0),
        lambda: hill_number([1, 2], -1.0),
        lambda: hill_number([[1, 2]], 0.0),
        lambda: accumulate(TABLE, [0, 1], -0.5),
        lambda: resample_accumulation(TABLE, 1, 0.0, 0),
        lambda: resample_accumulation(TABLE, 2, 0.0, -1),
        lambda: resample_accumulation(TABLE, 2, -1.0, 0),
        lambda: AbundanceTable(("s1",), ("t1", "t2"), np.array([[1, 2], [3, 4]])),
        lambda: fit_plec([(1, 1), (3, 2), (2, 3), (4, 4)]),
        lambda: DeathsTable(("A", "B"), DAY, [(-3,), (1,)]),
        lambda: DeathsTable(("A",), DAY, [(1,), (2,)]),
        lambda: DeathsTable(("A",), (), np.zeros((1, 0), dtype=np.int64)),
        # a cell that int64 conversion would change or cannot make
        lambda: AbundanceTable(("s",), ("a", "b"), [[1.5, 2]]),
        lambda: AbundanceTable(("s",), ("a", "b"), [[math.nan, 1]]),
        lambda: AbundanceTable(("s",), ("a", "b"), [[2**63, 1]]),
        lambda: AbundanceTable(("s",), ("a", "b"), [[2**64, 1]]),
        lambda: AbundanceTable(("s", "r"), ("a", "b"), [[1, 2], [3]]),
        lambda: DeathsTable(("x",), DAY, [[2.7]]),
        lambda: DeathsTable(("x",), DAY, np.array([[math.inf]])),
        lambda: DeathsTable(("x",), DAY, [["3"]]),
    ],
    ids=[
        "day_index", "hill_q", "hill_ndim", "accumulate_q", "replicates", "seed",
        "resample_q", "table_shape", "x_not_increasing", "negative_region_count",
        "deaths_table_shape", "deaths_table_no_dates", "table_fraction", "table_nan",
        "table_uint64", "table_beyond_uint64", "table_ragged", "deaths_table_fraction",
        "deaths_table_inf", "deaths_table_text",
    ],
)  # fmt: skip
def test_bad_argument_raises_invalid_argument(call):
    with pytest.raises(InvalidArgument) as err:
        call()
    assert isinstance(err.value, TplecError) and isinstance(err.value, ValueError)


@pytest.mark.parametrize("q", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "call",
    [
        lambda q: hill_number([1, 2, 3], q),
        lambda q: accumulate(TABLE, [0, 1], q),
        lambda q: resample_accumulation(TABLE, 2, q, 0),
    ],
    ids=["hill_number", "accumulate", "resample_accumulation"],
)
def test_non_finite_diversity_order_raises_invalid_argument(call, q):
    with pytest.raises(InvalidArgument, match="q must be finite and >= 0"):
        call(q)


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("q", [0.0, 1.0, 2.0])
def test_non_finite_count_raises_non_finite_value(value, q):
    with pytest.raises(NonFiniteValue, match="counts must be finite"):
        hill_number([value, 1.0], q)


@pytest.mark.parametrize("dtype", [None, np.uint64, np.float64, object])
def test_integer_cells_of_any_dtype_are_read(dtype):
    counts = [[3, 0], [1, 2**62]]
    cells = counts if dtype is None else np.array(counts, dtype=dtype)
    dates = DAY + (date(2021, 3, 2),)
    for table in (
        AbundanceTable(("s", "r"), ("a", "b"), cells),
        DeathsTable(("s", "r"), dates, cells),
    ):
        assert table.counts.dtype == np.int64 and table.counts.tolist() == counts


BAD = (math.nan, math.inf, -math.inf)
GROWTH = [(1.0, 2.0), (2.0, 3.5), (3.0, 5.0), (4.0, 6.0), (5.0, 6.5)]


def _spoil(points, index, value, axis):
    out = [list(p) for p in points]
    out[index][axis] = value
    return [tuple(p) for p in out]


@pytest.mark.parametrize("value", BAD)
@pytest.mark.parametrize("axis", [0, 1], ids=["x", "y"])
@pytest.mark.parametrize(
    "fit", [fit_loglog, fit_pl_growth, fit_plec, fit_cutoff], ids=lambda f: f.__name__
)
def test_non_finite_fit_input_is_rejected(fit, axis, value):
    points = _spoil(GROWTH, 2, value, axis)
    with pytest.raises(NonFiniteValue, match="finite"):
        fit(points)


@pytest.mark.parametrize(
    "call",
    [
        lambda: PlecModel(1e300, 50.0, -1e-12).predict(2),
        lambda: PlFit(800.0, 1.0, 1.0, 0.0).predict(2.0),
        lambda: predict_variance(TplFit(1000.0, 1.0, 1.0, 3), 5.0),
        lambda: confidence_band(1e308, None, 1, variance=math.inf),
        lambda: compute_asymptote(PlecModel(1.0, 200.0, -1e-3)),
        lambda: PlecModel(math.inf, 1.0, -0.1),
    ],
    ids=[
        "plec_predict",
        "pl_predict",
        "predict_variance",
        "confidence_band",
        "compute_asymptote",
        "plec_model",
    ],
)
def test_overflowing_value_raises_non_finite_value(call):
    with pytest.raises(NonFiniteValue, match="is not finite"):
        call()


@pytest.mark.parametrize("value", BAD)
@pytest.mark.parametrize("name", ["c", "w", "d"])
def test_non_finite_cutoff_parameter_is_rejected(name, value):
    params = {"c": 1.0, "w": 1.0, "d": -0.1, name: value}
    with pytest.raises(NonFiniteValue, match=f"parameter {name} is not finite"):
        PlecModel(**params)


def test_negative_region_count_names_the_region():
    # the first region, in row order, with a negative count
    counts = [(4, 5), (4, -1), (-2, 1)]
    with pytest.raises(InvalidArgument, match="region 'B' has a negative count"):
        DeathsTable(("A", "B", "C"), DAY + (date(2021, 3, 2),), counts)


SOURCES = sorted(Path(tplec.__file__).parent.glob("*.py"))


def _untyped_raises(source: str, module_name: str) -> list[int]:
    """Lines of ``raise`` statements that raise anything but a TplecError.

    Allowed: a bare re-raise; a name that resolves in the module to a
    ``TplecError`` subclass (called or not); a local that every
    assignment in its function binds to None, to such a call or to an
    exception its function caught (``except ... as exc``), which is a
    deferred bare re-raise; and, in the CLI, ``argparse.ArgumentTypeError``,
    which argparse turns into exit 2.
    """
    tree = ast.parse(source)
    scope = {}
    for node in ast.walk(tree):  # breadth first: parents before children
        for child in ast.iter_child_nodes(node):
            is_function = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            scope[child] = node if is_function else scope.get(node, tree)

    def tplec_error(name: str) -> bool:
        cls = getattr(importlib.import_module(module_name), name, None)
        return isinstance(cls, type) and issubclass(cls, TplecError)

    def allowed(node: ast.Raise) -> bool:
        exc = node.exc
        if exc is None:
            return True
        target = exc.func if isinstance(exc, ast.Call) else exc
        if isinstance(target, ast.Attribute):
            return (
                module_name == "tplec.cli"
                and isinstance(target.value, ast.Name)
                and (target.value.id, target.attr) == ("argparse", "ArgumentTypeError")
            )
        if not isinstance(target, ast.Name):
            return False
        if target is exc and isinstance(scope[node], ast.FunctionDef):
            bound = [
                a.value
                for a in ast.walk(scope[node])
                if isinstance(a, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == exc.id for t in a.targets)
            ]
            caught = {
                h.name for h in ast.walk(scope[node]) if isinstance(h, ast.ExceptHandler)
            }
            if bound:
                return all(
                    (isinstance(v, ast.Constant) and v.value is None)
                    or (isinstance(v, ast.Name) and v.id in caught)
                    or (
                        isinstance(v, ast.Call)
                        and isinstance(v.func, ast.Name)
                        and tplec_error(v.func.id)
                    )
                    for v in bound
                )
        return tplec_error(target.id)

    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and not allowed(node)
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_raise_in_the_package_is_a_tplec_error(path):
    module = "tplec" if path.stem == "__init__" else f"tplec.{path.stem}"
    assert _untyped_raises(path.read_text(), module) == []


@pytest.mark.parametrize(
    "line",
    [
        'raise ValueError("bad")',
        "raise KeyError",
        'raise argparse.ArgumentTypeError("bad")',
        "error = ValueError()\n    raise error",
        'error = InvalidArgument("bad") if x else ValueError()\n    raise error',
        "error = x\n    raise error",
    ],
)
def test_raise_guard_flags_untyped_raises(line):
    source = f"def f(x):\n    {line}\n"
    assert _untyped_raises(source, "tplec.ingest") != []


def test_raise_guard_allows_a_caught_exception_raised_later():
    source = (
        "def f(x):\n"
        "    error = None\n"
        "    try:\n"
        "        x()\n"
        "    except BaseException as exc:\n"
        "        error = exc\n"
        "    if error is not None:\n"
        "        raise error\n"
    )
    assert _untyped_raises(source, "tplec.ingest") == []


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but never references; ``__future__`` is exempt."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_in_the_package_is_used(path):
    assert _unused_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "source, unused",
    [
        ("import os\n", ["os"]),
        ("import os.path\n", ["os"]),
        ("import numpy as np\nnumpy = 1\n", ["np"]),
        ("from math import pi, tau\nx = pi\n", ["tau"]),
        ("from . import reporting\n", ["reporting"]),
        ("from __future__ import annotations\n", []),
        ("from datetime import date\ndef f(d: date): pass\n", []),
    ],
    ids=[
        "module", "submodule", "alias", "one_of_two", "relative", "future",
        "annotation",
    ],
)  # fmt: skip
def test_import_guard_flags_unused_imports(source, unused):
    assert _unused_imports(source) == unused


def _functions_using(source: str, is_use) -> list[str]:
    """The function (``<module>`` at top level) of each node ``is_use`` picks."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if is_use(child):
                found.append(where)
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else where)

    visit(ast.parse(source), "<module>")
    return found


def _csv_reader_uses(source: str) -> list[str]:
    """The functions that use ``csv.reader``.

    Counts the attribute ``csv.reader`` and ``from csv import reader``.
    """
    return _functions_using(
        source,
        lambda node: (
            isinstance(node, ast.Attribute)
            and (node.attr, getattr(node.value, "id", None)) == ("reader", "csv")
        )
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "csv"
            and any(alias.name == "reader" for alias in node.names)
        ),
    )


def _method_calls(source: str, name: str) -> list[str]:
    """The functions that call a method ``name``, as in ``x.name(...)``."""
    return _functions_using(
        source,
        lambda node: isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == name,
    )


def test_no_file_is_read_as_text():
    # every input is read as bytes and decoded where it enters ingest
    uses = {path.name: _method_calls(path.read_text(), "read_text") for path in SOURCES}
    assert {name: found for name, found in uses.items() if found} == {}


def test_ingest_decodes_input_in_one_place():
    source = (Path(tplec.__file__).parent / "ingest.py").read_text()
    assert sorted(_method_calls(source, "decode")) == ["_input_bytes", "_utf8"]


@pytest.mark.parametrize(
    "source, found",
    [
        ("text = Path(p).read_text()\n", ["<module>"]),
        ("def f(data):\n    return data.decode('utf-8')\n", ["f"]),
        ("def f(p):\n    read_text = p.read_bytes()\n", []),
    ],
    ids=["module", "function", "not_a_call"],
)
def test_method_call_guard_finds_each_call(source, found):
    assert _method_calls(source, "read_text") + _method_calls(source, "decode") == found


def test_csv_is_read_in_one_place():
    uses = {path.name: _csv_reader_uses(path.read_text()) for path in SOURCES}
    assert {name: found for name, found in uses.items() if found} == {
        "ingest.py": ["_csv_records"]
    }


@pytest.mark.parametrize(
    "source, found",
    [
        ("import csv\nrows = csv.reader(lines)\n", ["<module>"]),
        ("from csv import reader\n", ["<module>"]),
        ("def f(lines):\n    return list(csv.reader(lines))\n", ["f"]),
        ("def f(lines):\n    return csv.writer(lines)\n", []),
    ],
    ids=["module", "from_import", "function", "writer"],
)
def test_csv_guard_finds_each_use(source, found):
    assert _csv_reader_uses(source) == found


def _thin_cli_violations(source: str) -> list[str]:
    """What keeps a CLI module from being argparse and I/O only.

    Flags an import of numpy, an import of the ``plec`` or ``regression``
    module (models are built from report records in ``reporting``, not
    in the CLI), and a second stage wrapper: a handler of ``TplecError``
    (or ``Exception``) that raises a new error, the shape of
    ``tplec.errors.stage``. An import is an import statement anywhere in
    the module or a string constant passed to ``importlib.import_module``.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # ``from . import x`` imports the module x
            modules = [node.module] if node.module else [a.name for a in node.names]
        elif (
            isinstance(node, ast.Call)
            and ast.unparse(node.func) in ("importlib.import_module", "import_module")
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            modules = [str(node.args[0].value)]
        else:
            modules = []
        for module in modules:
            parts = module.split(".")
            if parts[0] == "numpy" or parts[-1] in ("plec", "regression"):
                found.append(f"imports {module}")
        if (
            isinstance(node, ast.ExceptHandler)
            and isinstance(node.type, ast.Name)
            and node.type.id in ("TplecError", "Exception")
            and any(isinstance(n, ast.Raise) and n.exc for n in ast.walk(node))
        ):
            found.append(f"stage wrapper at line {node.lineno}")
    return found


def test_the_cli_is_argparse_and_io_only():
    source = (Path(tplec.__file__).parent / "cli.py").read_text()
    assert _thin_cli_violations(source) == []


@pytest.mark.parametrize(
    "source",
    [
        "import numpy as np",
        "from numpy import asarray",
        "import numpy.linalg",
        "def _stage(name, fn, *args):\n"
        "    try:\n"
        "        return fn(*args)\n"
        "    except TplecError as exc:\n"
        "        raise StageError(f'{name}: {exc}') from exc\n",
        "from .plec import PlecModel",
        "def bind():\n    from .regression import fit_loglog\n",
        "importlib.import_module('numpy')",
        "import_module('.regression', __package__)",
    ],
    ids=[
        "numpy", "from_numpy", "numpy_submodule", "stage_wrapper", "plec",
        "in_function", "import_module", "relative_import_module",
    ],
)  # fmt: skip
def test_thin_cli_guard_flags_violations(source):
    assert _thin_cli_violations(source) != []
