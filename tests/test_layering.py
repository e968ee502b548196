"""Module layering, read from the source: no tiltcert module imports
another module's private names, the figure layer does not depend on the
verification suite, the heart imports only chern and certify, the
package's __all__ lists exactly what its __init__ imports, nothing
outside the standard library is imported, no module imports a name it
does not use, every module-level private name is read in its module,
every public name is read somewhere in the package or exported from its
root, only the CLI's main writes to stderr, every file open names its
encoding, no function mutates its parameters, every functools cache has
a bound, each exemption above still has the bench patch that needs it,
and the sources parse as the oldest Python that pyproject.toml allows."""

import ast
import sys
from pathlib import Path

import tiltcert

PACKAGE = Path(tiltcert.__file__).parent
BENCH_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tiltcert_imports(path):
    """(module, name) for each tiltcert import in a source file; name is
    None when a whole module is imported."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module or ""
            elif (node.module or "").split(".")[0] == "tiltcert":
                module = node.module.removeprefix("tiltcert").lstrip(".")
            else:
                continue
            for alias in node.names:
                yield (module, alias.name) if module else (alias.name, None)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("tiltcert."):
                    yield alias.name.removeprefix("tiltcert."), None


def test_no_module_imports_another_modules_private_names():
    offenders = [
        f"{path.name} imports {name} from {module}"
        for path in sorted(PACKAGE.glob("*.py"))
        for module, name in _tiltcert_imports(path)
        if name is not None and name.startswith("_") and module != path.stem
    ]
    assert offenders == []


def test_figures_do_not_import_the_suite():
    modules = {module for module, _ in _tiltcert_imports(PACKAGE / "svg.py")}
    assert "suite" not in modules


def test_heart_imports_only_chern_and_certify():
    modules = {module for module, _ in _tiltcert_imports(PACKAGE / "heart.py")}
    assert modules == {"chern", "certify"}


def test_package_exports_match_its_imports():
    imported = {
        alias.asname or alias.name
        for node in ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert [name for name in tiltcert.__all__ if not hasattr(tiltcert, name)] == []
    assert sorted(imported - set(tiltcert.__all__)) == []


def test_package_imports_only_the_standard_library():
    imported = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update((path.name, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add((path.name, node.module))
    offenders = [
        f"{name} imports {module}"
        for name, module in sorted(imported)
        if module.split(".")[0] not in sys.stdlib_module_names
    ]
    assert imported and offenders == []


# (module, name) imported without a use -> the (module, attribute) that
# bench/tracing.py patches and that keeps it alive.
UNUSED_IMPORTS = {("tilt", "poly_eval"): ("tilt", "poly_eval")}


def test_no_module_imports_a_name_it_does_not_use():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used.update(ast.literal_eval(node.value))
        offenders.extend(
            f"{path.name}:{node.lineno} imports {bound}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
            if (bound := (alias.asname or alias.name).split(".")[0]) not in used
            and (path.stem, bound) not in UNUSED_IMPORTS
        )
    assert offenders == []


def _loads(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _definitions(path):
    """(lineno, name, read) for each module-level name a source file
    defines; read is whether another top-level statement of the file
    loads it, so a helper that only calls itself counts as unread."""
    body = ast.parse(path.read_text(encoding="utf-8")).body
    reads = [_loads(stmt) for stmt in body]
    for k, stmt in enumerate(body):
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            defined = {stmt.name}
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            defined = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        else:
            continue
        read = set().union(*reads[:k], *reads[k + 1 :])
        for name in sorted(defined):
            yield stmt.lineno, name, name in read


def test_no_module_defines_an_unused_private_name():
    offenders = [
        f"{path.name}:{lineno} defines {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for lineno, name, read in _definitions(path)
        if name.startswith("_") and not name.startswith("__") and not read
    ]
    assert offenders == []


# Public names that no module reads -> the bench/tracing.py patch that
# keeps each alive: certify.poly_interval_eval is a None placeholder.
# Both exemptions wait for the bench to stop patching them (ROADMAP item 2a).
UNREAD_PUBLIC_NAMES = {("certify", "poly_interval_eval"): ("certify", "poly_interval_eval")}


def test_every_exemption_has_its_bench_patch():
    # When the bench drops a patch, the name it kept alive is dead code:
    # this names it, so it goes with the patch.
    tree = ast.parse(BENCH_TRACING.read_text(encoding="utf-8"))
    patches = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["PATCHES"]
    )
    patched = {(module.removeprefix("tiltcert."), attr) for _, module, attr in patches}
    dead = [
        f"{module}.{name} (kept by the {'.'.join(patch)} patch)"
        for exemptions in (UNUSED_IMPORTS, UNREAD_PUBLIC_NAMES)
        for (module, name), patch in exemptions.items()
        if patch not in patched
    ]
    assert dead == []


def test_every_public_name_is_read():
    # A public name counts as read when its module loads it outside its
    # definition, or another module imports it and loads it; an import
    # alone does not count.  The package root's exports need no reader.
    read = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loads = _loads(tree)
        read.update(
            (node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names
            if (alias.asname or alias.name) in loads
        )
    offenders = [
        f"{path.name}:{lineno} defines {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
        for lineno, name, read_here in _definitions(path)
        if not name.startswith("_")
        and not read_here
        and (path.stem, name) not in read | UNREAD_PUBLIC_NAMES.keys()
        and name not in tiltcert.__all__
    ]
    assert offenders == []


def test_only_cli_main_writes_to_stderr():
    # A CLI input error is raised as ValueError, and main alone prints it
    # as "error: <message>" and returns 2.
    writers = {
        getattr(stmt, "name", "<module>")
        for stmt in ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8")).body
        for node in ast.walk(stmt)
        if (isinstance(node, ast.Attribute) and node.attr == "stderr")
        or (isinstance(node, ast.Name) and node.id == "stderr")
    }
    assert writers == {"main"}


def test_every_open_names_its_encoding():
    # Without encoding= the text codec is whatever the host locale says.
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "open"
        and "encoding" not in {kw.arg for kw in node.keywords}
    ]
    assert offenders == []


MUTATORS = {
    "append", "extend", "insert", "add", "update", "pop",
    "clear", "remove", "setdefault", "sort", "reverse",
}


def test_no_function_mutates_its_parameters():
    # Results go back as return values, never through an out-parameter:
    # no mutating method call on a parameter, and no item assignment to one.
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = func.args
            params = {
                a.arg
                for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg)
                if a is not None
            }
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    targets = [node.func.value] if node.func.attr in MUTATORS else []
                elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    stores = node.targets if isinstance(node, ast.Assign) else [node.target]
                    targets = [t.value for t in stores if isinstance(t, ast.Subscript)]
                else:
                    continue
                offenders.extend(
                    f"{path.name}:{node.lineno} mutates {t.id}"
                    for t in targets
                    if isinstance(t, ast.Name) and t.id in params
                )
    assert offenders == []


def test_every_cache_is_bounded():
    # A cache keyed on caller values gains an entry per distinct value, so
    # each is an lru_cache with an int maxsize: a caller that sweeps many
    # regions holds a bounded number of entries.  No functools.cache, no
    # maxsize=None and no bare @lru_cache.
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names, modules = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names.update((alias.asname or alias.name, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                modules.update(
                    alias.asname or alias.name for alias in node.names if alias.name == "functools"
                )

        def functools_name(node):
            if isinstance(node, ast.Name):
                return names.get(node.id)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                return node.attr if node.value.id in modules else None
            return None

        bounded = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and functools_name(node.func) == "lru_cache":
                sizes = [*node.args[:1], *(kw.value for kw in node.keywords if kw.arg == "maxsize")]
                size = sizes[0] if len(sizes) == 1 else None
                if isinstance(size, ast.Constant) and type(size.value) is int:
                    bounded.add(id(node.func))
        offenders.extend(
            f"{path.name}:{node.lineno}: {functools_name(node)} without an int maxsize"
            for node in ast.walk(tree)
            if functools_name(node) in ("cache", "lru_cache") and id(node) not in bounded
        )
    assert offenders == []


def test_sources_parse_at_the_python_floor():
    # pyproject.toml says requires-python >= 3.10; a newer interpreter runs
    # these tests, so newer syntax would pass them unseen.
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
