"""The ``serve`` process imports only code that serves.

``python -m repro serve`` enters through the experiment runner, so the
runner must not import the figure/table drivers (nor, through them,
``repro.sfq``), the MWPM baseline's ``networkx`` or the metrics HTTP
stack until something asks for them.  Each check runs in a fresh
interpreter: this test process has long since imported all of them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import urllib.request
from pathlib import Path

import repro
from repro.core.online import run_online_trial
from repro.obs.expo import validate_exposition
from repro.service.client import ServiceClient
from repro.service.session import SessionSpec
from repro.surface_code.lattice import PlanarLattice

OFF_SERVE_PATH = (
    "networkx",
    "repro.experiments.fig4",
    "repro.experiments.fig7",
    "repro.experiments.table3",
    "repro.experiments.table4",
    "repro.experiments.table5",
    "repro.experiments.tables12",
    "repro.sfq",
    "http.server",
)

# `serve` through the runner's dispatcher, with networkx unimportable.
SERVE_WITHOUT_NETWORKX = (
    "import sys; sys.modules['networkx'] = None\n"
    "from repro.experiments.runner import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


def _python(code: str, *args: str) -> subprocess.Popen:
    """A fresh interpreter running ``code`` with this checkout's package."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.Popen(
        [sys.executable, "-c", code, *args], env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


def _address(line: str, proc: subprocess.Popen) -> tuple[str, int]:
    """``host, port`` from a serve announcement (``... on HOST:PORT``)."""
    if not line:
        _, err = proc.communicate(timeout=30)
        raise AssertionError(f"serve exited before announcing: {err}")
    host, port = line.split()[-1].split("//")[-1].split("/")[0].rsplit(":", 1)
    return host, int(port)


def _stop(client: ServiceClient, proc: subprocess.Popen) -> str:
    """Shut the server down over the wire; its remaining stdout."""
    client.shutdown()
    out, err = proc.communicate(timeout=30)
    assert proc.returncode == 0, err
    return out


def test_serve_import_graph_leaves_out_experiments_networkx_and_http():
    proc = _python(
        "import json, sys\n"
        "import repro.experiments.runner, repro.service.server\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    loaded = json.loads(out)
    leaked = [
        name for name in OFF_SERVE_PATH
        if any(m == name or m.startswith(name + ".") for m in loaded)
    ]
    assert not leaked, leaked


def test_serve_decodes_exactly_with_networkx_blocked():
    proc = _python(SERVE_WITHOUT_NETWORKX, "serve", "--port", "0")
    try:
        host, port = _address(proc.stdout.readline(), proc)
        spec = SessionSpec(d=5, p=0.02, seed=2301)
        with ServiceClient(host=host, port=port, timeout=30) as client:
            assert client.ping()
            result = client.decode(spec)
            out = _stop(client, proc)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert "decode service stopped" in out
    reference = run_online_trial(
        PlanarLattice(spec.d), spec.p, spec.rounds,
        spec.online_config(), rng=spec.seed,
    )
    assert result["matches"] == [
        [m.kind, list(m.a), None if m.b is None else list(m.b), m.side]
        for m in reference.matches
    ]
    assert result["layer_cycles"] == list(reference.layer_cycles)


def test_metrics_port_loads_the_http_exposition_on_demand():
    proc = _python(
        SERVE_WITHOUT_NETWORKX, "serve", "--port", "0", "--metrics-port", "0"
    )
    try:
        metrics_host, metrics_port = _address(proc.stdout.readline(), proc)
        host, port = _address(proc.stdout.readline(), proc)
        with ServiceClient(host=host, port=port, timeout=30) as client:
            client.decode(SessionSpec(d=3, p=0.02, seed=2302))
            url = f"http://{metrics_host}:{metrics_port}/metrics"
            with urllib.request.urlopen(url, timeout=30) as resp:
                assert resp.status == 200
                text = resp.read().decode()
            _stop(client, proc)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert validate_exposition(text) == []
    assert "repro_service_completed_total 1" in text
