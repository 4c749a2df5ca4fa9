"""The package runs with only its declared dependencies.

``scipy`` and ``networkx`` are the ``analysis`` extra: significance tests,
topology summaries and graph export import them where they are used. The
query client, the CLI and the serving stack must import and answer queries
in an environment that has neither.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap

from repro.storage.serialize import save_sketch
from repro.storage.sqlite_store import SqliteSketchStore

_SCRIPT = textwrap.dedent(
    """
    import importlib.abc
    import json
    import sys

    class RefuseOptional(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name.partition(".")[0] in ("scipy", "networkx"):
                raise ImportError(f"blocked {name}")
            return None

    sys.meta_path.insert(0, RefuseOptional())

    import repro
    import repro.api.server
    import repro.cli
    from repro.api.client import TsubasaClient
    from repro.api.spec import QuerySpec, WindowSpec
    from repro.engine.providers import StoreProvider
    from repro.storage.sqlite_store import SqliteSketchStore

    store_path = sys.argv[1]
    window = WindowSpec(end=599, length=300)
    with SqliteSketchStore(store_path) as store:
        client = TsubasaClient(provider=StoreProvider(store))
        values = {
            "matrix": client.execute(QuerySpec(op="matrix", window=window))
            .value.values.shape,
            "network": client.execute(
                QuerySpec(op="network", window=window, theta=0.4)
            ).value.n_edges,
            "top_k": len(client.execute(
                QuerySpec(op="top_k", window=window, k=3)
            ).value),
            "degree": len(client.execute(
                QuerySpec(op="degree", window=window, theta=0.4)
            ).value),
        }
    print(json.dumps(values), file=sys.stderr)
    loaded = sorted(
        m for m in sys.modules if m.partition(".")[0] in ("scipy", "networkx")
    )
    print(json.dumps({"loaded": loaded}), file=sys.stderr)
    sys.exit(repro.cli.main(["serve", "--store", store_path]))
    """
)


def test_queries_and_serve_without_analysis_extra(small_sketch, tmp_path):
    store_path = tmp_path / "sketch.db"
    with SqliteSketchStore(store_path) as store:
        save_sketch(store, small_sketch)
    request = {"id": "net", "op": "network",
               "window": {"end": 599, "length": 300}, "theta": 0.4}
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(store_path)],
        input=json.dumps(request) + "\n",
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    err_lines = proc.stderr.splitlines()
    values = json.loads(err_lines[0])
    assert values["matrix"] == [20, 20]
    assert values["top_k"] == 3
    assert values["degree"] == 20
    assert values["network"] >= 0
    assert json.loads(err_lines[1]) == {"loaded": []}
    responses = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["id"] for r in responses] == ["net"]
    assert responses[0]["ok"] is True
    assert responses[0]["result"]["n_nodes"] == 20
