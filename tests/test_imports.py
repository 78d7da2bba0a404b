"""Imports and leftovers: no dpfilt command loads scipy, no dpfilt module
imports a name it never uses, no private or public definition goes
unused, and no call leaves a public default the only value in use.

Each cold-start check runs in a fresh interpreter, since the test process
itself imports scipy as an oracle.
"""

import ast
import glob
import json
import os
import re
import subprocess
import sys

import pytest
import yaml

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MODULES = sorted(path for path in glob.glob(os.path.join(SRC, "dpfilt",
                                                         "*.py"))
                 if os.path.basename(path) != "__init__.py")


def scan(source: str):
    """One walk over a module's syntax tree. Returns the names it imports
    and the private names it defines, each with its first line, and the
    names and the attributes it reads; a name inside a string annotation
    counts as read. Private is a leading underscore, but neither the
    throwaway `_` nor a dunder; a definition is a def, a class or any
    name or attribute assigned."""
    imported, defined = {}, {}
    names, attrs = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            defined.setdefault(node.name, node.lineno)
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if isinstance(node.ctx, ast.Store):
                defined.setdefault(name, node.lineno)
            else:
                (names if isinstance(node, ast.Name) else attrs).add(name)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        for ann in filter(None, annotations):
            for sub in ast.walk(ann):
                if isinstance(sub, ast.Constant) and isinstance(sub.value,
                                                                str):
                    names.update(n.id for n in ast.walk(
                        ast.parse(sub.value, mode="eval"))
                        if isinstance(n, ast.Name))
    private = {name: line for name, line in defined.items()
               if name.startswith("_") and name != "_"
               and not name.startswith("__")}
    return imported, private, names, attrs


def unused_imports(source: str) -> list:
    """Names a module imports and never references."""
    imported, _, names, _ = scan(source)
    return sorted(f"{name} (line {line})"
                  for name, line in imported.items() if name not in names)


def unreferenced_private(sources: dict) -> list:
    """Private definitions, over modules given as {file name: source},
    that no name or attribute read in any of the modules refers to."""
    scans = {path: scan(source) for path, source in sources.items()}
    read = set().union(*(names | attrs
                         for _, _, names, attrs in scans.values()))
    return sorted(f"{name} ({path}:{line})"
                  for path, (_, private, _, _) in scans.items()
                  for name, line in private.items() if name not in read)


def unreferenced_public(sources: dict, readers: dict) -> list:
    """Public top-level functions and classes, and public methods, of the
    modules in `sources` that no name or attribute read in `readers` (both
    {file name: source}) refers to; a method counts only attribute reads.
    An import is no read, so a re-export does not keep a name alive."""
    scans = [scan(source) for source in readers.values()]
    names = set().union(*(n for _, _, n, _ in scans))
    attrs = set().union(*(a for _, _, _, a in scans))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for path, source in sources.items():
        for node in ast.parse(source).body:
            if not isinstance(node, defs) or node.name.startswith("_"):
                continue
            if node.name not in names | attrs:
                out.append(f"{node.name} ({path}:{node.lineno})")
            for item in node.body if isinstance(node, ast.ClassDef) else []:
                if isinstance(item, defs[:2]) and item.name not in attrs \
                        and not item.name.startswith("_"):
                    out.append(f"{node.name}.{item.name} "
                               f"({path}:{item.lineno})")
    return sorted(out)


def kind_comparisons(source: str, kinds: set) -> list:
    """Comparisons (==, !=, in, not in) whose operands hold a
    mechanism-kind literal, one config or document kind in `kinds`, as
    'line N'."""
    ops = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare) \
                or not any(isinstance(op, ops) for op in node.ops):
            continue
        if any(isinstance(sub, ast.Constant) and sub.value in kinds
               for operand in (node.left, *node.comparators)
               for sub in ast.walk(operand)):
            out.append(f"line {node.lineno}")
    return out


def scipy_modules_after(code: str, cwd) -> list:
    """Run code in a fresh interpreter, then list the scipy modules loaded."""
    script = code + "\nimport sys, json\nprint(json.dumps(sorted(" \
        "m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_import_cli_loads_no_scipy(tmp_path):
    assert scipy_modules_after("import dpfilt, dpfilt.cli", tmp_path) == []


@pytest.mark.parametrize("mech", ["zfe", "lms_causal", "df"])
def test_commands_load_no_scipy(tmp_path, mech):
    # a small 2-channel config; df adds Bauer's method, lms_causal the
    # causal postfilter and its rebuild on load
    target = {"rows": 2, "cols": 2, "entries": [
        {"row": i, "col": i, "num": [0.6, 0.3, 0.1]} for i in range(2)]}
    with open(tmp_path / "target.yaml", "w") as fh:
        yaml.safe_dump(target, fh)
    doc = {
        "grid_n": 256, "seed": 7,
        "privacy": {"epsilon": 1.0, "delta": 0.1, "k": [1.0, 1.0]},
        "filter": {"file": "target.yaml"},
        "mechanism": {"kind": mech},
        "spectrum": {"kind": "markov_server", "alpha": 0.3, "beta": 0.6,
                     "floor": 1e-4},
        "source": {"kind": "markov_server", "alpha": 0.3, "beta": 0.6},
        "simulate": {"trials": 2, "steps": 2000},
    }
    with open(tmp_path / "config.yaml", "w") as fh:
        yaml.safe_dump(doc, fh)
    code = (
        "from dpfilt.cli import main\n"
        "codes = [main(['design', '--config', 'config.yaml', "
        "'--out', 'design.json']),\n"
        "         main(['sensitivity', '--config', 'config.yaml', "
        "'--out', 'sens.json']),\n"
        "         main(['simulate', '--design', 'design.json', "
        "'--report', 'report.json'])]\n"
        "assert codes == [0, 0, 0], codes\n")
    assert scipy_modules_after(code, tmp_path) == []


def test_unused_imports_flagged():
    source = ("from .lti import FirBank, TransferMatrix, grid_omega\n"
              "import numpy as np\n"
              "def f(x) -> 'FirBank':\n"
              "    return np.abs(x)\n")
    assert unused_imports(source) == ["TransferMatrix (line 1)",
                                      "grid_omega (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_module_has_no_unused_import(path):
    with open(path) as fh:
        assert unused_imports(fh.read()) == []


def mechanism_kinds() -> set:
    from dpfilt.fileio import MECHANISMS
    return set(MECHANISMS) | {row.kind for row in MECHANISMS.values()}


def test_kind_comparison_flagged():
    # the --domain check of `dpfilt simulate` before the mechanism table,
    # the if-chain of the design command, and a non-kind literal
    source = ('if doc["kind"] != "decision_feedback":\n'
              '    pass\n'
              'if kind in ("lms_smoother", "lms_causal"):\n'
              '    mode = "smoother" if kind == "lms_smoother" else "c"\n'
              'white = block.get("kind") == "white"\n'
              'default = cfg.get("kind", "zfe")\n')
    assert kind_comparisons(source, mechanism_kinds()) == [
        "line 1", "line 3", "line 4"]


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_mechanism_kinds_dispatched_by_the_table(path):
    # a kind is told apart only by its row of fileio.MECHANISMS, never by
    # comparing a value with its name
    with open(path) as fh:
        assert kind_comparisons(fh.read(), mechanism_kinds()) == []


# The keys of a design document's postfilter block and of the lookahead
# that DF stores beside it; fileio alone reads and writes them
DOCUMENT_KEYS = {"postfilter", "taps", "half", "h1_taps", "p_coeffs",
                 "lookahead"}


def document_key_uses(source: str) -> list:
    """Subscripts (read or written) and .get() calls with a key in
    DOCUMENT_KEYS, as 'line N: key'. A key read off _load_data(...), a
    data file packaged with dpfilt, is no design-document read."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript):
            owner, key = node.value, node.slice
        elif isinstance(node, ast.Call) and node.args \
                and getattr(node.func, "attr", None) == "get":
            owner, key = node.func.value, node.args[0]
        else:
            continue
        if isinstance(owner, ast.Call) \
                and getattr(owner.func, "id", None) == "_load_data":
            continue
        if isinstance(key, ast.Constant) and key.value in DOCUMENT_KEYS:
            out.append(f"line {node.lineno}: {key.value}")
    return sorted(out)


def test_document_key_use_flagged():
    # the smoother load and dump, the DF lookahead read of the postfilter
    # classes before fileio held them, a packaged data file, and reads of
    # other keys
    source = ('half = int(doc["postfilter"].get("half", -1))\n'
              'block["taps"] = taps.tolist()\n'
              'd = int(doc.get("lookahead", 0))\n'
              'f = _load_data("gaussian_fir.json")["taps"]\n'
              'kind = doc.get("kind")\n'
              'arr = doc["postfilter"][key]\n')
    assert document_key_uses(source) == [
        "line 1: half", "line 1: postfilter", "line 2: taps",
        "line 3: lookahead", "line 6: postfilter"]


@pytest.mark.parametrize("path", [path for path in MODULES
                                  if os.path.basename(path) != "fileio.py"],
                         ids=os.path.basename)
def test_design_document_read_only_in_fileio(path):
    # a postfilter is a runtime filter; how a design stores it is fileio's
    with open(path) as fh:
        assert document_key_uses(fh.read()) == []


def test_unreferenced_private_flagged():
    sources = {"a.py": ("_LIMIT = 3\n"
                        "def _helper():\n"
                        "    return _LIMIT\n"
                        "class Box:\n"
                        "    def _spare(self):\n"
                        "        self._cache = 1\n"
                        "        x, _ = 1, 2\n"
                        "        return x\n"
                        "    def __len__(self):\n"
                        "        return 0\n"),
               "b.py": "from a import _helper\n_helper()\n"}
    assert unreferenced_private(sources) == ["_cache (a.py:6)",
                                             "_spare (a.py:5)"]


def test_no_unreferenced_private_definition():
    sources = {}
    for path in glob.glob(os.path.join(SRC, "dpfilt", "*.py")):
        with open(path) as fh:
            sources[os.path.basename(path)] = fh.read()
    assert unreferenced_private(sources) == []


def test_unreferenced_public_flagged():
    sources = {"a.py": ("def used():\n"
                        "    return Box().size\n"
                        "def spare():\n"
                        "    return 0\n"
                        "class Box:\n"
                        "    def size(self):\n"
                        "        return 1\n"
                        "    def grow(self):\n"
                        "        return 2\n"
                        "    def __len__(self):\n"
                        "        return 0\n"
                        "def _hidden():\n"
                        "    return 0\n")}
    readers = dict(sources, **{
        "__init__.py": "from a import Box, grow, spare, used\n",
        "test_a.py": "from a import used\nused()\ngrow = 1\nprint(grow)\n"})
    assert unreferenced_public(sources, readers) == ["Box.grow (a.py:8)",
                                                     "spare (a.py:3)"]


def tree_sources() -> tuple[dict, dict]:
    """The dpfilt modules, and every Python file under src/, tests/ and
    benchmark/, each as {file name: source}."""
    readers = {}
    for pattern in ("src/**/*.py", "tests/**/*.py", "benchmark/**/*.py"):
        for path in glob.glob(os.path.join(ROOT, pattern), recursive=True):
            with open(path) as fh:
                readers[os.path.relpath(path, ROOT)] = fh.read()
    sources = {os.path.basename(path): readers[os.path.relpath(path, ROOT)]
               for path in MODULES}
    return sources, readers


def test_no_unreferenced_public_definition():
    assert unreferenced_public(*tree_sources()) == []


def defaulted_parameters(sources: dict) -> list:
    """(callee, parameter, call position or None, file, line) for each
    defaulted parameter of the public functions and methods of the
    modules in `sources`. The callee is the name a call uses, the class
    name for __init__; the call position leaves out self and cls."""
    out = []
    for path, source in sources.items():
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            funcs = [(node.name, node, 0)]
            if isinstance(node, ast.ClassDef):
                funcs = [(node.name if fn.name == "__init__" else fn.name, fn,
                          int(not any(getattr(d, "id", "") == "staticmethod"
                                      for d in fn.decorator_list)))
                         for fn in node.body
                         if isinstance(fn, ast.FunctionDef)
                         and (fn.name == "__init__"
                              or not fn.name.startswith("_"))]
            for name, fn, bound in funcs:
                a = fn.args
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                for i, arg in enumerate(positional[first:], first):
                    out.append((name, arg.arg, i - bound, path, arg.lineno))
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        out.append((name, arg.arg, None, path, arg.lineno))
    return out


def passed_arguments(readers: dict) -> dict:
    """Callee name -> (largest positional argument count, keyword names)
    over every call in `readers` ({file name: source}). A call through
    functools.partial counts as a call of its first argument, a starred
    argument covers every later position, an unpacked mapping other than
    a forwarded **kwargs covers every keyword ("*"), and a call that
    forwards its function's **kwargs passes whatever that function is
    passed."""
    count, words, forwards = {}, {}, []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node
        if isinstance(node, ast.Call):
            func, args = node.func, node.args
            if getattr(func, "id", getattr(func, "attr", None)) == "partial" \
                    and args:
                func, args = args[0], args[1:]
            callee = getattr(func, "id", getattr(func, "attr", None))
            starred = any(isinstance(arg, ast.Starred) for arg in args)
            count[callee] = max(count.get(callee, 0),
                                float("inf") if starred else len(args))
            names = words.setdefault(callee, set())
            kwarg = owner and owner.args.kwarg and owner.args.kwarg.arg
            for kw in node.keywords:
                if kw.arg is not None:
                    names.add(kw.arg)
                elif kwarg and getattr(kw.value, "id", None) == kwarg:
                    forwards.append((owner.name, callee))
                else:
                    names.add("*")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for source in readers.values():
        visit(ast.parse(source), None)
    changed = True
    while changed:
        changed = False
        for owner, callee in forwards:
            new = words.get(owner, set()) - words[callee]
            words[callee] |= new
            changed = changed or bool(new)
    return {name: (count[name], words[name]) for name in count}


def never_passed(sources: dict, readers: dict) -> list:
    """Defaulted parameters of the public functions and methods of
    `sources` that no call in `readers` passes, by keyword, by position,
    through functools.partial or through **kwargs forwarding, each as
    'callee(parameter) (file:line)'. Calls are matched by name alone."""
    calls = passed_arguments(readers)
    out = []
    for callee, param, pos, path, line in defaulted_parameters(sources):
        n, names = calls.get(callee, (0, set()))
        if param in names or "*" in names or (pos is not None and pos < n):
            continue
        out.append(f"{callee}({param}) ({path}:{line})")
    return sorted(out)


def test_never_passed_parameter_flagged():
    # scale is passed by position, fast by keyword, tol through a
    # partial and name through **kwargs forwarding; spare and the
    # method's gain never are. Private functions and methods are out of
    # scope, and __init__ goes by its class name
    sources = {"a.py": ("def fit(x, scale=1.0, *, fast=False, spare=0):\n"
                        "    return x\n"
                        "def solve(x, tol=1e-9, name=''):\n"
                        "    return x\n"
                        "def wrap(x, **kwargs):\n"
                        "    return solve(x, **kwargs)\n"
                        "def _hidden(x, limit=3):\n"
                        "    return x\n"
                        "class Box:\n"
                        "    def __init__(self, size=1):\n"
                        "        self.size = size\n"
                        "    def grow(self, gain=2.0):\n"
                        "        return self._spare()\n"
                        "    def _spare(self, k=0):\n"
                        "        return k\n")}
    readers = dict(sources, **{
        "b.py": ("import functools\n"
                 "from a import Box, fit, solve, wrap\n"
                 "fit(1.0, 2.0, fast=True)\n"
                 "f = functools.partial(solve, tol=1e-3)\n"
                 "wrap(1.0, name='x')\n"
                 "Box(3).grow()\n")})
    assert never_passed(sources, readers) == [
        "fit(spare) (a.py:1)", "grow(gain) (a.py:12)"]


def test_every_defaulted_parameter_is_passed():
    # a default that no call sets is a constant in disguise
    assert never_passed(*tree_sources()) == []


def dead_flags(parser, source: str) -> list:
    """Options that a subcommand accepts, on its own parser or through a
    parent parser, and `source` never reads, as args.<dest> or
    getattr(args, "<dest>"), each as 'subcommand --option'; --help is
    left out."""
    import argparse
    sub = next(action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))
    return sorted(f"{name} {action.option_strings[-1]}"
                  for name, p in sub.choices.items() for action in p._actions
                  if action.option_strings
                  and not isinstance(action, argparse._HelpAction)
                  and not re.search(
                      rf"\bargs\.{action.dest}\b|getattr\(args, "
                      rf"[\"']{action.dest}[\"']", source))


def test_dead_flag_flagged():
    # a --dt-label that is parsed and only read off another object, and
    # a --verbose that every subcommand shares through a parent parser
    # and nothing reads, beside a read --out and a getattr read --seed
    import argparse
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers()
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--verbose", action="store_true")
    gen = sub.add_parser("gen", parents=[common])
    gen.add_argument("--dt-label", default="")
    gen.add_argument("--out")
    other = sub.add_parser("other", parents=[common])
    other.add_argument("--seed", type=int)
    source = ("def cmd_gen(args):\n"
              "    stream.dt_label = label.dt_label\n"
              "    return args.out\n"
              "def cmd_other(args):\n"
              "    return getattr(args, 'seed', None)\n")
    assert dead_flags(parser, source) == ["gen --dt-label", "gen --verbose",
                                          "other --verbose"]


def test_every_subcommand_option_is_read():
    from dpfilt.cli import build_parser
    with open(os.path.join(SRC, "dpfilt", "cli.py")) as fh:
        assert dead_flags(build_parser(), fh.read()) == []
