"""Every name a heavyseries module imports is used in that module, every
import sits at module level, one-owner helpers stay with their owners, and
the package imports no scipy: it runs on numpy and the standard library.

`__init__.py` is left out of the unused-name check: its imports are the
package's public names.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys
import textwrap

import pytest

import heavyseries
from heavyseries import priors, quadrature
from heavyseries.errors import InvalidParameterError

_PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "heavyseries"
_ALL_MODULES = sorted(_PACKAGE.glob("*.py"))
_MODULES = [p for p in _ALL_MODULES if p.name != "__init__.py"]


def _unused_imports(source):
    """(line, name) of each imported name that no expression reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.partition(".")[0]
                imported.append((alias.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_unused_import_check_finds_unused_names():
    source = ("import os\nimport a.b\nfrom x import y as z, w\n"
              "def f():\n    from . import q\n    return a.b(w)\n")
    assert _unused_imports(source) == [(1, "os"), (3, "z"), (5, "q")]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def _function_imports(source):
    """Sorted lines of the import statements inside function bodies."""
    tree = ast.parse(source)
    return sorted({inner.lineno for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for inner in ast.walk(node)
                   if isinstance(inner, (ast.Import, ast.ImportFrom))})


def test_function_import_check_finds_nested_imports():
    source = ("import os\ndef f():\n    import a\n    def g():\n"
              "        from . import b\n    return a\n"
              "class C:\n    def m(self):\n        from x import y\n")
    assert _function_imports(source) == [3, 5, 9]


# The one import deferred into a function: a process pool's modules load
# only in a run that starts a pool (see test_import_loads_no_process_pool).
_DEFERRED_IMPORTS = {
    "harness.py": ["from concurrent.futures import ProcessPoolExecutor"],
}


@pytest.mark.parametrize("path", _ALL_MODULES, ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    source = path.read_text()
    lines = source.splitlines()
    assert ([lines[i - 1].strip() for i in _function_imports(source)]
            == _DEFERRED_IMPORTS.get(path.name, []))


def test_import_loads_no_process_pool():
    # `concurrent.futures` pulls in multiprocessing, logging and socket;
    # only a parallel run needs it
    probe = ("import sys\nimport heavyseries\n"
             "print('\\n'.join(sorted(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=str(_PACKAGE.parent))
    loaded = subprocess.run([sys.executable, "-c", probe], env=env,
                            check=True, capture_output=True,
                            text=True).stdout.split()
    assert "heavyseries.harness" in loaded
    assert [m for m in loaded if m.startswith("concurrent")] == []


def _referenced_names(source):
    """Names a module defines, imports, reads or reads as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_referenced_names_finds_every_kind_of_reference():
    source = ("from x import a\nimport y.b\ndef c():\n    return d + e.f\n")
    assert _referenced_names(source) >= {"a", "b", "c", "d", "e", "f"}


def test_flat_levels_stays_with_priors_and_wavelets():
    # the flat position -> wavelet level layout is defined in `wavelets`
    # and mapped to prior scales only by `priors.coordinate_index`
    users = [p.name for p in _ALL_MODULES
             if "flat_levels" in _referenced_names(p.read_text())]
    assert users == ["priors.py", "wavelets.py"]


def test_prior_classes_stay_with_priors():
    # every other module reads a prior's behaviour from the flags its tail
    # and scaling declare, never from their class (`__init__.py` may
    # re-export them)
    classes = {name for name, obj in vars(priors).items()
               if isinstance(obj, type)
               and issubclass(obj, (priors.TailFamily, priors.ScalingRule))}
    assert {"GaussianTail", "GaussianHierarchicalScaling"} <= classes
    users = [p.name for p in _MODULES
             if classes & _referenced_names(p.read_text())]
    assert users == ["priors.py"]
    # nor parses a prior name: every other module names a prior whole, as
    # `make_prior` builds it, and never tests for a tail or scaling key
    assert [p.name for p in _ALL_MODULES
            if _prior_name_pieces(p.read_text())] == ["priors.py"]


def _prior_name_pieces(source):
    """(line, text) of each string constant that holds a tail or scaling
    key of `make_prior`'s tables, alone or between hyphens, and is not a
    name `make_prior` builds: what a parser of prior names tests for."""
    keys = [key.strip("-") for key in (*priors._TAILS, *priors._SCALINGS)]
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and any(re.search(rf"(^|-){re.escape(key)}(-|$)", node.value)
                        for key in keys)):
            continue
        try:
            priors.make_prior(node.value, n=1.0)
        except InvalidParameterError:
            found.append((node.lineno, node.value))
    return found


def test_prior_name_piece_check_finds_every_form():
    source = ('a = ("cauchy-ot", "student3-ht-0.75", "truncated-hs")\n'
              'b = name.startswith("student3-ht-")\n'
              'c = name.endswith("-ot")\n'
              'd = name.partition("-")[0] == "horseshoe"\n'
              'e = ("wavelet", "least-favorable-1", "sobolev-cos")\n'
              'f = f"{tail}-wavelet-ot"\n')
    assert _prior_name_pieces(source) == [
        (2, "student3-ht-"), (3, "-ot"), (4, "horseshoe"),
        (6, "-wavelet-ot")]


def _package_imports(source):
    """Names of the package modules a module imports, relatively or by
    the package name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.partition(".")[0] != "heavyseries":
                    continue
                module = module.partition(".")[2]
            if module:
                found.add(module.partition(".")[0])
            else:  # `from . import a, b`
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("heavyseries."))
    return found


def test_package_import_check_finds_every_form():
    source = ("import numpy\nfrom . import basis as b, rng\n"
              "from .errors import X\nfrom .wavelets.sub import y\n"
              "import heavyseries.model\nfrom heavyseries.priors import z\n"
              "from heavyseries import signals\nfrom numpy import linalg\n")
    assert _package_imports(source) == {"basis", "rng", "errors", "wavelets",
                                        "model", "priors", "signals"}


def test_quadrature_engine_stays_in_quadrature():
    # the one-dimensional engine's internals are named only where they
    # live; other modules call `quadrature_mean_var`
    internals = {"_kronrod_pass", "_panel_edges", "_split_edges", "_RULES"}
    users = [p.name for p in _ALL_MODULES
             if internals & _referenced_names(p.read_text())]
    assert users == ["quadrature.py"]
    # and the engine builds on no package module but `errors`
    source = (_PACKAGE / "quadrature.py").read_text()
    assert _package_imports(source) == {"errors"}
    # nor reads more of a tail than its log-density and the conjugate flag
    assert _tail_attributes(source) <= {"conjugate", "log_density_scaled"}


def test_gibbs_is_reached_only_through_fit_posterior():
    # `fit_posterior` checks the chain lengths and the basis before it
    # routes a hierarchical prior to the sampler, which checks neither
    users = [p.name for p in _ALL_MODULES
             if "gibbs_hierarchical_gaussian"
             in _referenced_names(p.read_text())]
    assert users == ["posterior.py"]
    assert "gibbs_hierarchical_gaussian" not in heavyseries.__all__


def _tail_attributes(source):
    """Names read as attributes of a `tail` variable or field."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id == "tail"
                    or isinstance(owner, ast.Attribute)
                    and owner.attr == "tail"):
                found.add(node.attr)
    return found


def test_tail_attribute_check_finds_every_form():
    source = ("post.tail.conjugate\ntail.tail_bound_c2 + 1\n"
              "f(self.tail.log_density_scaled(t, s))\npost.tail\n"
              "tail_x.name\n")
    assert _tail_attributes(source) == {"conjugate", "tail_bound_c2",
                                        "log_density_scaled"}


def test_engine_reference_check_finds_calls_and_aliases():
    for source in ("post.tail._engine_log_abs(u)\n",
                   "density = tail._engine_log_abs\n",
                   "def _engine_log_abs(self, u):\n    pass\n"):
        assert "_engine_log_abs" in _referenced_names(source), source
    assert "_engine_log_abs" not in _referenced_names(
        "tail.log_density_scaled(t, s)\n")


def test_tail_engines_are_reached_only_through_log_density_scaled():
    # quadrature and Metropolis evaluate a tail through its one path in,
    # `log_density_scaled`, which also carries theta = 0 to the engine
    users = [p.name for p in _ALL_MODULES
             if "_engine_log_abs" in _referenced_names(p.read_text())]
    assert users == ["priors.py"]


def _level_literals(source):
    """Lines of each tuple, list or set literal whose items are the
    summary quantile levels, in any order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            items = [item.value for item in node.elts
                     if isinstance(item, ast.Constant)
                     and isinstance(item.value, float)]
            if (len(items) == len(node.elts)
                    and sorted(items) == sorted(quadrature.QUANTILES)):
                found.append(node.lineno)
    return found


def test_level_literal_check_finds_every_form():
    source = ("levels = (0.05, 0.5, 0.95)\nq = [0.95, 0.5, 0.05]\n"
              "x = 0.05, 0.5, 0.95\nnp.quantile(d, {0.05, 0.5, 0.95})\n"
              "half = (0.05, 0.5)\nmore = (0.05, 0.5, 0.95, 0.99)\n"
              "names = ('0.05', '0.5', '0.95')\nq[0.05], q[0.5], q[0.95]\n")
    assert _level_literals(source) == [1, 2, 3, 4]


def test_quantile_levels_are_written_only_by_quadrature():
    # every summary reads its levels from `quadrature.QUANTILES`
    users = [p.name for p in _ALL_MODULES if _level_literals(p.read_text())]
    assert users == ["quadrature.py"]


def test_blas_threads_stay_with_basis():
    # only `basis` sets BLAS threads, around its own products; no other
    # module loads a native library or names an OpenBLAS thread symbol
    users = [p.name for p in _ALL_MODULES
             if re.search(r"\bctypes\b|openblas\w*_num_threads",
                          p.read_text())]
    assert users == ["basis.py"]


def test_block_budget_stays_with_wavelets():
    # every loop over a stack takes its blocks from `wavelets.row_blocks`;
    # no other module names the budget they share, in code or in prose
    users = [p.name for p in _ALL_MODULES
             if re.search(r"\b_BLOCK_VALUES\b", p.read_text())]
    assert users == ["wavelets.py"]


def _file_writers(source):
    """(line, callee) of each `StringIO` a module builds and each `open`
    it calls with a mode that writes, appends or creates, or with a mode
    that is not a string literal."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(
            func, "attr", None)
        if name == "StringIO":
            found.append((node.lineno, name))
        elif name == "open":
            # open(path, mode), io.open and os.open take the mode second,
            # a method such as Path.open first
            slot = 1 if isinstance(func, ast.Name) or (
                isinstance(func.value, ast.Name)
                and func.value.id in ("io", "os")) else 0
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
            modes += node.args[slot:slot + 1]
            if any(not (isinstance(m, ast.Constant)
                        and isinstance(m.value, str)
                        and set(m.value).isdisjoint("wax+"))
                   for m in modes):
                found.append((node.lineno, name))
    return found


def test_file_writer_check_finds_every_form():
    source = ("open(p)\nopen(p, 'w')\nopen(p, 'rb')\nopen(p, mode='a')\n"
              "open(p, m)\nio.open(p, 'x')\npathlib.Path(p).open('r+')\n"
              "pathlib.Path(p).open()\nio.StringIO()\nStringIO('')\n"
              "os.open(p, os.O_WRONLY)\nfh.open('r')\n")
    assert _file_writers(source) == [
        (2, "open"), (4, "open"), (5, "open"), (6, "open"), (7, "open"),
        (9, "StringIO"), (10, "StringIO"), (11, "open")]


def test_files_are_written_only_by_model():
    # every CSV comes from `model.csv_text` and every file, stdout
    # included, is written by `model.write_text`
    users = [p.name for p in _ALL_MODULES if _file_writers(p.read_text())]
    assert users == ["model.py"]


def _file_removers(source):
    """(line, callee) of each call that deletes a file: `os.remove`,
    `os.unlink`, `Path.unlink` and `shutil.rmtree`, called through their
    modules or imported by name.  A `remove` method of anything but `os`,
    such as `list.remove`, is not one."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            name, owner = func.id, "os"  # as after `from os import remove`
        elif isinstance(func, ast.Attribute):
            name = func.attr
            owner = func.value.id if isinstance(func.value, ast.Name) else ""
        else:
            continue
        if name in ("unlink", "rmtree") or (name == "remove"
                                            and owner == "os"):
            found.append((node.lineno, name))
    return found


def test_file_remover_check_finds_every_form():
    source = ("os.remove(p)\nos.unlink(p)\npathlib.Path(p).unlink()\n"
              "shutil.rmtree(d)\nnames.remove(x)\nremove(p)\nrmtree(d)\n"
              "path.unlink(missing_ok=True)\nos.path.exists(p)\n"
              "unlink(p)\nfiles.pop(p)\n")
    assert _file_removers(source) == [
        (1, "remove"), (2, "unlink"), (3, "unlink"), (4, "rmtree"),
        (6, "remove"), (7, "rmtree"), (8, "unlink"), (10, "unlink")]


def test_files_are_removed_only_by_harness():
    # `harness.write_outputs` alone decides which of a run's files exist
    users = [p.name for p in _ALL_MODULES if _file_removers(p.read_text())]
    assert users == ["harness.py"]


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _foreign_private_names(source, own):
    """(module, name) of each underscore name of another package module
    that a module imports or reads as an attribute of that module."""
    tree = ast.parse(source)
    modules = {}  # local name -> package module
    package = set()  # local names of the package itself
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.partition(".")[0] != "heavyseries":
                    continue
                module = module.partition(".")[2]
            module = module.partition(".")[0]
            for alias in node.names:
                if not module:  # `from . import a as b`
                    modules[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    found.add((module, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head != "heavyseries" or not rest:
                    continue
                if alias.asname:
                    modules[alias.asname] = rest.partition(".")[0]
                else:  # `import heavyseries.a` binds `heavyseries`
                    package.add(head)
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and _private(node.attr)):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id in modules:
            found.add((modules[owner.id], node.attr))
        elif (isinstance(owner, ast.Attribute)
              and isinstance(owner.value, ast.Name)
              and owner.value.id in package):
            found.add((owner.attr, node.attr))
    return {(module, name) for module, name in found if module != own}


def test_private_name_check_finds_every_form():
    source = ("import numpy as np\nfrom . import basis as b, rng\n"
              "from .quadrature import f, _g\n"
              "from heavyseries.priors.x import _h\n"
              "import heavyseries.model as hm\nimport heavyseries.spaces\n"
              "from heavyseries import signals\nfrom .wavelets import _own\n"
              "x = b._i + rng._j + b.k + hm._l + signals._m + wavelets._own\n"
              "y = heavyseries.spaces._n + np._o + rng.__name__ + _p + q._r\n")
    assert _foreign_private_names(source, "wavelets") == {
        ("quadrature", "_g"), ("priors", "_h"), ("basis", "_i"),
        ("rng", "_j"), ("model", "_l"), ("signals", "_m"), ("spaces", "_n")}


def test_private_names_stay_in_their_modules():
    # a module that needs another's helper calls it by a public name
    found = {p.name: _foreign_private_names(p.read_text(), p.stem)
             for p in _ALL_MODULES}
    assert {name: reads for name, reads in found.items() if reads} == {}


def _scipy_imports(source):
    """(line, statement) of each scipy import, as `from m import a, b` or
    `import m`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
            text = (f"from {node.module} import "
                    + ", ".join(a.name for a in node.names))
        elif isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
            text = "import " + ", ".join(modules)
        else:
            continue
        if any(m == "scipy" or m.startswith("scipy.") for m in modules):
            found.append((node.lineno, text))
    return found


def test_scipy_import_check_finds_every_form():
    source = ("import scipy\nfrom scipy import special\n"
              "from scipy.interpolate import CubicSpline\n"
              "import numpy, scipy.linalg\nfrom .scipy import x\n")
    assert _scipy_imports(source) == [
        (1, "import scipy"), (2, "from scipy import special"),
        (3, "from scipy.interpolate import CubicSpline"),
        (4, "import numpy, scipy.linalg")]


@pytest.mark.parametrize("path", _ALL_MODULES, ids=lambda p: p.name)
def test_no_module_imports_scipy(path):
    assert _scipy_imports(path.read_text()) == []


def test_package_runs_with_scipy_blocked(tmp_path):
    # with sys.modules["scipy"] = None every import of scipy raises
    # ImportError, so this catches a scipy use on any path the static
    # check cannot see: a transitive import, or one made at run time
    probe = textwrap.dedent(f"""
        import sys
        sys.modules["scipy"] = None
        import heavyseries as hs
        from heavyseries import posterior, priors

        hs.HORSESHOE._ensure_spline()
        data = hs.simulate(hs.make_truth("sobolev-cos", K=20), 1e3, 20, 0)
        gaussian = hs.PriorSpec(hs.GAUSSIAN, priors.OTScaling(),
                                baseline=True)
        for prior in (hs.make_prior("student3-ot"), hs.make_prior("cauchy-ot"),
                      hs.make_prior("horseshoe-ot"), gaussian):
            fit = hs.fit_posterior(data, prior)
            assert fit.diagnostics["quadrature_max_achieved"] <= 1e-6, \
                prior.label
            assert 0.0 < prior.tail.tail_mass(1.0) < 0.5, prior.label
        posterior.metropolis_draws([(data, hs.make_prior("cauchy-ot"))],
                                   draws=50, burn_in=50, seed=0)
        hs.run_experiment(hs.ExperimentConfig(
            experiment="inhomogeneous", truths=("bumps",), replications=1,
            draws=100, burn_in=100, parallel=1, out_dir={str(tmp_path)!r}))
        print(sorted(m for m in sys.modules if m.startswith("scipy")))
        """)
    env = dict(os.environ, PYTHONPATH=str(_PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["['scipy']"]  # the blocking entry only
    assert (tmp_path / "errors.csv").is_file()
