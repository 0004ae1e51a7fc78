import ast
import inspect
from pathlib import Path

import pytest

import listrank
from listrank import cli, errors
from listrank.errors import DegenerateEmbeddingError, ListrankError, NonFiniteLossError


def test_every_public_name_resolves():
    missing = [name for name in listrank.__all__ if not hasattr(listrank, name)]
    assert not missing


def test_one_error_class_per_exit_code():
    classes = {name: c for name, c in vars(errors).items() if inspect.isclass(c)}
    assert {name: c.exit_code for name, c in classes.items()} == {
        "ListrankError": 2, "DegenerateEmbeddingError": 3, "NonFiniteLossError": 4}
    assert all(issubclass(c, ListrankError) for c in classes.values())


def test_no_other_exception_class_in_the_package():
    def raisable(base):
        name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")
        return name.endswith(("Error", "Exception"))

    found = [f"{path.name}:{node.name}"
             for path in sorted(Path(listrank.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ClassDef) and any(map(raisable, node.bases))]
    assert found == ["errors.py:ListrankError", "errors.py:DegenerateEmbeddingError",
                     "errors.py:NonFiniteLossError"]


@pytest.mark.parametrize("exc, code", [
    (ListrankError("boom"), 2), (DegenerateEmbeddingError("boom"), 3),
    (NonFiniteLossError("boom"), 4), (FileNotFoundError("boom"), 2),
], ids=["ListrankError", "DegenerateEmbeddingError", "NonFiniteLossError", "OSError"])
def test_main_returns_the_exit_code(monkeypatch, tmp_path, capsys, exc, code):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_synth", fail)
    assert cli.main(["synth", "--out", str(tmp_path)]) == code
    assert capsys.readouterr().err == "error: boom\n"
