"""Import-graph guard: a process loads only what its command runs.

Package ``__init__`` modules export their public names lazily
(:mod:`repro._lazy`) and ``repro.cli`` imports at its top only the
stdlib, :mod:`repro.errors` and :mod:`repro.pipeline.spec` — every other
module inside the command that uses it.  So ``import repro.cli`` loads
no numpy, a ``convert`` no kernel, and a ``repro-mis solve`` never
compiles the service layer, stream sessions, comparators, the stream
wave kernel, reductions, graph generators or table formatting.  Neither
a solve nor a forked service job loads ``numpy.ma`` (about 20 ms per
process), which the plain ``np.unique`` form would import.  Work that
is timed imports nothing: a forked service job runs on what the daemon
preloaded, and a stream batch on what the session's construction
loaded.  Each check runs in a fresh interpreter, since this test process
has long since imported everything.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.graphs.generators import erdos_renyi_gnm
from repro.storage.adjacency_file import write_adjacency_file
from repro.storage.converters import adjacency_to_binary

#: Modules no ``solve FILE.csr`` or ``convert --to-binary`` may load.
FORBIDDEN_PREFIXES = (
    "repro.service",
    "repro.dynamic",
    "repro.baselines",
    "repro.reductions",
    "repro.analysis",
)
FORBIDDEN_MODULES = (
    "repro.pipeline.stream",
    "repro.graphs.generators",
    "repro.graphs.plrg",
    "repro.graphs.datasets",
    "repro.graphs.cascade",
    "repro.reporting",
)

LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.core.kernels",
    "repro.storage",
    "repro.pipeline",
    "repro.graphs",
)

SRC = str(Path(repro.__file__).resolve().parents[1])


def _fresh(script: str, *args: str) -> subprocess.CompletedProcess:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


_CLI_MODULES = """
import json, sys
from repro.cli import main
code = main(sys.argv[2:])
with open(sys.argv[1], "w") as handle:
    json.dump({"code": code, "modules": sorted(sys.modules)}, handle)
"""


def _cli_modules(tmp_path, argv):
    record = tmp_path / "modules.json"
    child = _fresh(_CLI_MODULES, str(record), *argv)
    assert child.returncode == 0, child.stderr
    loaded = json.loads(record.read_text())
    assert loaded["code"] == 0
    return loaded["modules"]


def _forbidden(modules):
    return [
        name
        for name in modules
        if name in FORBIDDEN_MODULES
        or any(name == p or name.startswith(p + ".") for p in FORBIDDEN_PREFIXES)
    ]


@pytest.fixture(scope="module")
def graph_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("import-graph")
    graph = erdos_renyi_gnm(400, 1_200, seed=3)
    text = str(root / "g.adj")
    order = list(graph.degree_ascending_order())
    write_adjacency_file(graph, text, order=order).close()
    binary = str(root / "g.csr")
    adjacency_to_binary(text, binary)
    return text, binary


@pytest.mark.parametrize("pipeline", ["one_k_swap", "two_k_swap"])
def test_solve_loads_only_the_solve_path(graph_files, tmp_path, pipeline):
    _text, binary = graph_files
    argv = [
        "solve",
        binary,
        "--pipeline",
        pipeline,
        "--checkpoint",
        str(tmp_path / "solve.ck"),
        "--json",
    ]
    modules = _cli_modules(tmp_path, argv)
    assert "repro.core.kernels.numpy_backend" in modules
    # The python reference loads only in runs that resolve to it.
    assert "repro.core.kernels.python_backend" not in modules
    assert _forbidden(modules) == []
    assert "numpy.ma" not in modules
    # The comparators and the stream wave kernel are modules of their own.
    assert "repro.core.kernels.numpy_comparators" not in modules
    assert "repro.core.kernels.numpy_waves" not in modules


def test_importing_the_cli_loads_no_numpy():
    child = _fresh(
        "import sys\n"
        "import repro.cli\n"
        "print(sorted(m for m in sys.modules if m == 'numpy'"
        " or m.startswith(('numpy.', 'repro.')) and m not in"
        " ('repro._lazy', 'repro.pipeline')))\n"
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == str(
        ["repro.cli", "repro.errors", "repro.pipeline.spec"]
    )


def test_importing_the_result_type_loads_no_kernels():
    child = _fresh(
        "import sys\n"
        "import repro.core.result\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.core')))\n"
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == str(["repro.core", "repro.core.result"])


_SERVICE_JOB_MODULES = """
import json, sys
import repro.service.service as scheduler
from repro.pipeline.spec import RunSpec
from repro.service import ServiceClient, ServiceConfig, SolverService
from repro.service.worker import execute_job

def recording_worker(root, job_id):
    preloaded = set(sys.modules)
    code = execute_job(root, job_id)
    with open(sys.argv[1], "w") as handle:
        json.dump(
            {
                "code": code,
                "modules": sorted(sys.modules),
                "imported": sorted(set(sys.modules) - preloaded),
            },
            handle,
        )
    sys.exit(code)

root, graph = sys.argv[2:4]
client = ServiceClient(root)
job = client.submit(RunSpec.from_dict({"pipeline": "two_k_swap", "input": graph}))
# The scheduler forks this in place of worker_main.
scheduler.worker_main = recording_worker
service = SolverService(root, ServiceConfig(workers=1, poll_interval_seconds=0.02))
try:
    service.drain(timeout_seconds=120)
finally:
    service.stop()
assert client.status(job.job_id).state == "done"
"""


def test_forked_two_k_service_job_loads_no_numpy_ma(graph_files, tmp_path):
    _text, binary = graph_files
    record = tmp_path / "modules.json"
    child = _fresh(_SERVICE_JOB_MODULES, str(record), str(tmp_path / "svc"), binary)
    assert child.returncode == 0, child.stderr
    loaded = json.loads(record.read_text())
    assert loaded["code"] == 0
    assert "repro.core.kernels.numpy_backend" in loaded["modules"]
    assert "numpy.ma" not in loaded["modules"]
    # The daemon preloads everything a solve job runs, so the job's fork
    # compiles no module of its own.
    assert [m for m in loaded["imported"] if m.startswith("repro.")] == []


_STREAM_BATCH_MODULES = """
import json, sys
from repro.pipeline.stream import StreamSession
from repro.storage.binary_format import MemmapAdjacencySource

graph_path, updates, checkpoint, out = sys.argv[1:5]
source = MemmapAdjacencySource(graph_path)
graph = source.to_graph()
source.close()
session = StreamSession(
    graph, updates, pipeline="greedy", batch_size=64, checkpoint=checkpoint
)
imported = []
before = set(sys.modules)
for _report in session.process():
    imported.extend(sorted(set(sys.modules) - before))
    before = set(sys.modules)
with open(out, "w") as handle:
    json.dump({"batches": session.total_batches, "imported": imported}, handle)
"""


@pytest.mark.parametrize("backend", ["numpy", "python"])
def test_stream_batches_import_no_module(graph_files, tmp_path, backend, monkeypatch):
    _text, binary = graph_files
    rng = random.Random(11)
    lines = []
    for _ in range(400):
        u, v = rng.sample(range(400), 2)
        lines.append(f"{'+' if rng.random() < 0.7 else '-'} {u} {v}")
    updates = tmp_path / "updates.txt"
    updates.write_text("\n".join(lines) + "\n")
    out = tmp_path / "batches.json"
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", backend)
    child = _fresh(
        _STREAM_BATCH_MODULES,
        binary,
        str(updates),
        str(tmp_path / "session.ck"),
        str(out),
    )
    assert child.returncode == 0, child.stderr
    loaded = json.loads(out.read_text())
    assert loaded["batches"] > 1
    assert loaded["imported"] == []


def test_numpy_watch_loads_no_python_backend(graph_files, tmp_path):
    _text, binary = graph_files
    rng = random.Random(5)
    lines = []
    for _ in range(300):
        u, v = rng.sample(range(400), 2)
        lines.append(f"{'+' if rng.random() < 0.7 else '-'} {u} {v}")
    updates = tmp_path / "updates.txt"
    updates.write_text("\n".join(lines) + "\n")
    argv = [
        "watch",
        binary,
        "--updates",
        str(updates),
        "--backend",
        "numpy",
        "--batch-size",
        "100",
        "--quiet",
        "--json",
    ]
    modules = _cli_modules(tmp_path, argv)
    assert "repro.dynamic.maintainer" in modules
    assert "repro.core.kernels.numpy_backend" in modules
    assert "repro.core.kernels.python_backend" not in modules


def test_convert_loads_no_solver_extras(graph_files, tmp_path):
    text, _binary = graph_files
    argv = ["convert", text, str(tmp_path / "out.csr"), "--to-binary"]
    modules = _cli_modules(tmp_path, argv)
    assert _forbidden(modules) == []
    solver_side = [
        name
        for name in modules
        if name.startswith(("repro.core", "repro.obs", "repro.pipeline"))
        and name != "repro.pipeline.spec"
    ]
    assert solver_side == ["repro.pipeline"]  # the lazy package of spec


_EXPORT_CHECK = """
import importlib, sys, types
failures = []
for package in sys.argv[1:]:
    module = importlib.import_module(package)
    names = list(module.__all__)
    listed = dir(module)
    for name in names:
        value = getattr(module, name)
        if isinstance(value, types.ModuleType):
            failures.append(f"{package}.{name} resolves to a module")
        if name not in listed:
            failures.append(f"{package}.{name} missing from dir()")
    namespace = {}
    exec(f"from {package} import *", namespace)
    missing = sorted(set(names) - set(namespace))
    if missing:
        failures.append(f"from {package} import * lacks {missing}")
print("\\n".join(failures))
sys.exit(1 if failures else 0)
"""


def test_validation_checks_load_no_solver():
    # Output checks also run in processes that never solve, such as a
    # verifier; loading the kernel stack there costs about 8 MB of RSS.
    child = _fresh(
        "import sys\n"
        "import repro.validation.checks\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.core')))\n"
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"


def test_lazy_exports_resolve_in_a_fresh_interpreter():
    child = _fresh(_EXPORT_CHECK, *LAZY_PACKAGES)
    assert child.returncode == 0, child.stdout + child.stderr


def test_lazy_packages_resolve_submodules_on_attribute_access():
    child = _fresh(
        "import repro.storage, repro.graphs\n"
        "assert repro.storage.checkpoint.CHECKPOINT_VERSION >= 2\n"
        "assert callable(repro.graphs.generators.path_graph)\n"
        "try:\n"
        "    repro.storage.no_such_module\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('unknown attribute resolved')\n"
    )
    assert child.returncode == 0, child.stderr
