"""The documented library surface: the README's examples and the package's export list."""

import ast
import pathlib
import re

import rebitkit

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    # in order, in one namespace, so a block may use the names of the blocks before it;
    # the suite turns every warning into an error, so a block may not warn either
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, flags=re.S | re.M))
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        line = text.count("\n", 0, block.start(1))  # tracebacks name the README's own lines
        exec(compile("\n" * line + block.group(1), str(README), "exec"), namespace)


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse(pathlib.Path(rebitkit.__file__).read_text(encoding="utf-8"))
    imported = [alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names]
    assert rebitkit.__all__ == imported
    for name in rebitkit.__all__:
        getattr(rebitkit, name)
    namespace: dict = {}
    exec("from rebitkit import *", namespace)
    assert set(rebitkit.__all__) <= set(namespace)
