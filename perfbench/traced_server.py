"""Run ``tsubasa`` with server-side spans, then write them out at exit.

Usage: ``python perfbench/traced_server.py SPANS.json serve --store ... --http ...``

The wrappers go around the server's public functions before
``repro.cli.main`` starts, so the traced server is the same code and
configuration as the untraced one. Names and layers:

====================  =============================================
span                  function
====================  =============================================
``parse``             ``repro.api.protocol.parse_request``
``submit``            ``TsubasaService.submit`` (request root)
``compute``           ``TsubasaClient.compute_matrix``
``combine``           ``repro.core.prefix.combine_matrix_prefix``
``direct``            ``repro.core.exact.query_correlation_matrix``
``finish``            ``TsubasaClient.finish``
``encode``            ``repro.api.frames.encode_response_v2``
====================  =============================================
"""

from __future__ import annotations

import sys

from tracing import SpanRecorder


def install(recorder: SpanRecorder) -> None:
    import repro.api.client as client_module
    import repro.api.server as server_module
    import repro.core.prefix as prefix_module
    from repro.api.client import TsubasaClient
    from repro.api.service import TsubasaService

    # The server and client modules bind these names at import time, so
    # the wrappers replace the names where they are looked up.
    recorder.wrap(server_module, "parse_request", "parse")
    recorder.wrap(server_module, "encode_response_v2", "encode",
                  size_of_result=True)
    recorder.wrap(client_module, "query_correlation_matrix", "direct")
    # Imported inside the provider method on each call.
    recorder.wrap(prefix_module, "combine_matrix_prefix", "combine")
    recorder.wrap_request(TsubasaService, "submit", "submit")
    recorder.wrap(TsubasaClient, "compute_matrix", "compute", spec_arg=1)
    recorder.wrap(TsubasaClient, "finish", "finish", spec_arg=1)


def main(argv: list[str]) -> int:
    from repro.cli import main as cli_main

    spans_path, cli_argv = argv[0], argv[1:]
    recorder = SpanRecorder()
    install(recorder)
    try:
        return cli_main(cli_argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
