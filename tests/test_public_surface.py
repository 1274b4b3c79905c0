import ast
import importlib
import inspect
from pathlib import Path

import pytest

import koopext

# the library's modules and the experiment runners, which `koopext` does not
# import, so their public names live by the same rules
MODULES = [*koopext.__all__, "experiments"]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_functions_and_classes(name):
    mod = importlib.import_module(f"koopext.{name}")
    defined = {
        attr
        for attr, val in vars(mod).items()
        if not attr.startswith("_")
        and (inspect.isfunction(val) or inspect.isclass(val))
        and val.__module__ == mod.__name__
    }
    assert len(set(mod.__all__)) == len(mod.__all__)
    assert all(hasattr(mod, attr) for attr in mod.__all__)
    exported = {
        attr for attr in mod.__all__
        if inspect.isfunction(getattr(mod, attr)) or inspect.isclass(getattr(mod, attr))
    }
    assert exported == defined


SRC = Path(koopext.__file__).resolve().parent
# the record principal_filter returns: its fields are the function's answer
RECORDS = {"PrincipalComponents"}


def _is_dataclass_def(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _declared_and_read():
    declared, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            if not isinstance(node, ast.ClassDef) or node.name in RECORDS:
                continue
            dataclass = _is_dataclass_def(node)
            for item in node.body:
                if dataclass and isinstance(item, ast.AnnAssign):
                    declared.append(f"{path.stem}.{node.name}.{item.target.id}")
                elif isinstance(item, ast.FunctionDef) and any(
                    isinstance(d, ast.Name) and d.id == "property" for d in item.decorator_list
                ):
                    declared.append(f"{path.stem}.{node.name}.{item.name}")
    return declared, read


def test_every_dataclass_field_and_property_is_read_in_src():
    declared, read = _declared_and_read()
    assert declared
    assert [name for name in declared if name.rsplit(".", 1)[1] not in read] == []


# public names that only the tests read, each kept as an oracle the tests
# check the library against
TEST_ORACLES = {
    "qr_iteration": "the QR oracle criterion 11 checks the deflation path against",
    "quasi_triangular_eigenvalues": "reads the eigenvalues off qr_iteration's Schur form",
    "principal_filter": "the paper's log-PCA filter that criterion 6 checks",
}


def _referenced_in_src():
    """Every name src/ loads as a bare name or reads as an attribute, outside
    the `__all__` lists and the import statements."""
    used = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    return used


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_is_used_in_src_or_is_a_listed_oracle(name):
    mod = importlib.import_module(f"koopext.{name}")
    unused = sorted(set(mod.__all__) - _referenced_in_src() - set(TEST_ORACLES))
    assert unused == []


def test_every_listed_oracle_is_public_and_unused_in_src():
    public = {attr for name in MODULES
              for attr in importlib.import_module(f"koopext.{name}").__all__}
    assert sorted(set(TEST_ORACLES) - public) == []
    assert sorted(set(TEST_ORACLES) & _referenced_in_src()) == []


EIGEN_CALLS = {"eig", "eigvals"}


def _eigen_uses(source: str) -> list[int]:
    """Lines of `source` that read numpy's eig or eigvals: as an attribute
    (np.linalg.eig, an aliased linalg module's .eigvals) or imported by name
    from numpy.linalg."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in EIGEN_CALLS:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            lines += [node.lineno for alias in node.names if alias.name in EIGEN_CALLS]
    return lines


@pytest.mark.parametrize("source, found", [
    ("import numpy as np\nnp.linalg.eig(A)", [2]),
    ("import numpy\nlams = numpy.linalg.eigvals(A)", [2]),
    ("from numpy import linalg as la\nla.eig(A)", [2]),
    ("from numpy.linalg import eig as e\ne(A)", [1]),
    ("import numpy as np\nnp.linalg.eigh(A)\nnp.linalg.svd(A)", []),
])
def test_the_eigen_use_finder_sees_every_spelling(source, found):
    assert _eigen_uses(source) == found


def test_only_eigensolve_calls_numpy_eig():
    # one eigendecomposition path: every eigen decision (order, pair rule,
    # phase fix, realness) lives in eigensolve, so no other module decomposes
    uses = {path.stem: _eigen_uses(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert len(uses.pop("eigensolve")) == 1
    assert {stem: lines for stem, lines in uses.items() if lines} == {}


WRITE_MODES = set("wax+")


def _is_name(node, name: str) -> bool:
    return (isinstance(node, ast.Name) and node.id == name) or (
        isinstance(node, ast.Attribute) and node.attr == name)


def _file_writes(source: str) -> list[int]:
    """Lines of `source` that write a file by hand: an `open` (a builtin or a
    path's method) whose mode writes, appends, creates or updates, or is not a
    literal; a `write_text` or `write_bytes`; numpy's `savetxt`; or
    `json.dump`, as an attribute or imported by name."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module in ("json", "numpy"):
            lines += [node.lineno for alias in node.names if alias.name in ("dump", "savetxt")]
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        if _is_name(fn, "open"):
            args = node.args[1:] if isinstance(fn, ast.Name) else node.args
            mode = next((kw.value for kw in node.keywords if kw.arg == "mode"),
                        args[0] if args else ast.Constant("r"))
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not WRITE_MODES & set(mode.value)):
                lines.append(node.lineno)
        elif any(_is_name(fn, name) for name in ("write_text", "write_bytes", "savetxt")) or (
                isinstance(fn, ast.Attribute) and fn.attr == "dump"
                and _is_name(fn.value, "json")):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("source, found", [
    ("with open(p, 'w') as fh:\n    fh.write(s)", [1]),
    ("fh = open(p, mode='a')", [1]),
    ("fh = open(p, m)", [1]),
    ("fh = path.open('x')", [1]),
    ("path.write_text(s)", [1]),
    ("import numpy as np\nnp.savetxt(p, a)", [2]),
    ("from numpy import savetxt\nsavetxt(p, a)", [1, 2]),
    ("import json\njson.dump(d, fh)", [2]),
    ("from json import dump\ndump(d, fh)", [1]),
    ("with open(p) as fh:\n    json.load(fh)\nopen(p, 'rb')\njson.dumps(d)", []),
])
def test_the_file_write_finder_sees_every_spelling(source, found):
    assert _file_writes(source) == found


def test_only_core_writes_files():
    # one CSV row writer and one JSON writer: every artifact goes through
    # core._write_csv or core._write_json, so no other module writes by hand
    writes = {path.stem: _file_writes(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert writes.pop("core")
    assert {stem: lines for stem, lines in writes.items() if lines} == {}


def test_the_power_loop_cap_is_one_constant():
    # eigensolve._ARNOLDI_STEPS caps every power solve: no function takes a
    # max_iter of its own, and no table (a runner's parameters) offers one
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
                assert "max_iter" not in names, f"{path.name}:{node.lineno}"
            elif isinstance(node, ast.Dict):
                keys = {k.value for k in node.keys if isinstance(k, ast.Constant)}
                assert "max_iter" not in keys, f"{path.name}:{node.lineno}"
