"""What a colorlab process imports, and the lazy package namespace.

``import colorlab`` loads no submodule: each exported name imports its home
module on first use, and each CLI command imports the modules it runs.  The
import sets are read in fresh processes, since this one has loaded
everything.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest

import colorlab
from colorlab import graphio
from colorlab.build import mirzakhani

SRC = os.path.dirname(os.path.dirname(colorlab.__file__))

REPORT = (
    "print(json.dumps(sorted(m for m in sys.modules"
    " if m.split('.')[0] in ('colorlab', 'fractions'))))"
)


def loaded_after(code, *argv):
    """The colorlab.* and fractions modules a fresh process holds after `code`."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import json, sys\n{code}\n{REPORT}", *argv],
        capture_output=True, env=dict(os.environ, PYTHONPATH=SRC), text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def after_command(*argv):
    """The modules loaded after `colorlab *argv`, its own output discarded."""
    code = (
        "import contextlib, io\n"
        "from colorlab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(sys.argv[1:]) == 0"
    )
    return loaded_after(code, *argv)


def test_the_gadget_lemma_loads_verify_and_leaves_proof_out():
    loaded = loaded_after("import colorlab\ncolorlab.gadget_lemma")
    assert "colorlab.verify" in loaded
    assert "colorlab.proof" not in loaded


def test_importing_colorlab_loads_no_submodule():
    assert loaded_after("import colorlab") == {"colorlab"}


def test_building_m_loads_only_graph_and_build():
    code = "import colorlab\ncolorlab.mirzakhani(); colorlab.canonical_lists()"
    assert loaded_after(code) == {"colorlab", "colorlab.build", "colorlab.graph"}


def test_importing_build_builds_nothing():
    # Each fixed object is built on its first call and then shared.
    code = (
        "import colorlab.build as b\n"
        "builders = (b.wheel4, b.gadget, b.mirzakhani, b.wheel_lists, b.canonical_lists)\n"
        "assert [f.cache_info().currsize for f in builders] == [0] * 5"
    )
    assert loaded_after(code) == {"colorlab", "colorlab.build", "colorlab.graph"}


def test_the_audit_command_leaves_proof_graphio_and_fractions_out():
    loaded = after_command("audit")
    assert "colorlab.verify" in loaded
    assert not loaded & {"colorlab.proof", "colorlab.graphio", "fractions", "colorlab.choose"}


def test_verify_and_one_section_leave_choose_out_and_the_section_leaves_proof_out(tmp_path):
    # Both load verify, whose witness check (verify_not_choosable) lives in solve.
    graph = tmp_path / "m.json"
    graph.write_text(graphio.graph_to_json(mirzakhani()))
    assert "colorlab.choose" not in after_command("verify", "--graph", str(graph))
    loaded = after_command("prove", "--section", "1")
    assert "colorlab.verify" in loaded
    assert not loaded & {"colorlab.choose", "colorlab.proof"}


def test_the_probe_command_leaves_verify_and_proof_out(tmp_path):
    graph = tmp_path / "m.json"
    graph.write_text(graphio.graph_to_json(mirzakhani()))
    loaded = after_command(
        "choosability", "--graph", str(graph), "--probe", "--k", "3", "--trials", "5"
    )
    assert "colorlab.choose" in loaded
    assert not loaded & {"colorlab.verify", "colorlab.proof"}


def test_the_probe_command_on_integer_coordinates_leaves_fractions_out(tmp_path):
    graph = tmp_path / "m.json"
    graph.write_text(graphio.graph_to_json(mirzakhani()))
    loaded = after_command(
        "choosability", "--graph", str(graph), "--probe", "--k", "3", "--trials", "5"
    )
    assert "colorlab.graphio" in loaded
    assert "fractions" not in loaded


def test_the_forked_probe_command_loads_no_process_pool_or_pickle(tmp_path):
    # The probe forks with os.fork alone: multiprocessing, concurrent.futures
    # and pickle would add their import time to every cold probe.
    graph = tmp_path / "m.json"
    graph.write_text(graphio.graph_to_json(mirzakhani()))
    code = (
        "import contextlib, io, os\n"
        "real_fork, forks = os.fork, []\n"
        "def counting_fork():\n"
        "    pid = real_fork()\n"
        "    forks.append(pid)\n"
        "    return pid\n"
        "os.fork = counting_fork\n"
        "from colorlab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(sys.argv[1:]) == 0\n"
        "from colorlab import choose\n"
        "assert len(forks) == choose._workers(1000) - 1, forks\n"
        "pools = {'multiprocessing', 'concurrent.futures', 'pickle'} & set(sys.modules)\n"
        "assert not pools, sorted(pools)"
    )
    argv = ("choosability", "--graph", str(graph), "--probe", "--k", "3", "--trials", "1000")
    assert "colorlab.choose" in loaded_after(code, *argv)


# ------------------------------------------------------- the lazy namespace


def test_every_export_is_its_home_module_object():
    for name in colorlab.__all__:
        if name != "__version__":
            home = importlib.import_module(f"colorlab.{colorlab._EXPORTS[name]}")
            assert getattr(colorlab, name) is getattr(home, name), name


def test_every_exported_function_or_class_is_defined_in_its_home_module():
    for name, home in colorlab._EXPORTS.items():
        value = getattr(colorlab, name)
        if inspect.isfunction(value) or inspect.isclass(value):
            assert value.__module__ == f"colorlab.{home}", name


def test_star_import_binds_every_export():
    # In a fresh process, so that every name goes through the lazy lookup.
    code = (
        "from colorlab import *\n"
        "import colorlab\n"
        "assert all(globals()[n] is getattr(colorlab, n) for n in colorlab.__all__)"
    )
    assert loaded_after(code) >= {f"colorlab.{m}" for m in colorlab._EXPORTS.values()}


def test_dir_lists_every_export():
    assert set(colorlab.__all__) <= set(dir(colorlab))


def test_a_submodule_is_an_attribute_without_a_prior_import():
    code = "import colorlab\nassert colorlab.verify is sys.modules['colorlab.verify']"
    assert "colorlab.verify" in loaded_after(code)


def test_an_unknown_name_raises_the_usual_attribute_error():
    with pytest.raises(AttributeError, match="^module 'colorlab' has no attribute 'nosuch'$"):
        colorlab.nosuch  # noqa: B018
    assert not hasattr(colorlab, "nosuch")
