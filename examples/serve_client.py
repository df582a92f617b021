"""Minimal client for the `repro.serve` analysis daemon.

Posts a SPICE deck to a running daemon, prints the analysis summary and
(optionally) validates the inline observability trace against the span
schema.  Doubles as the CI `serve-smoke` probe:

    python -m repro.serve --model-dir runs/models --port 8080 &
    python examples/serve_client.py --deck decks/chip.sp --port 8080 \
        --trace inline --check-observability

Exits non-zero on any HTTP error or schema violation, so it is safe to
use as a smoke-test assertion.
"""

from __future__ import annotations

import argparse
import json
import sys
import urllib.error
import urllib.request


def _request(url: str, payload: dict | None = None, timeout: float = 300.0) -> dict:
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(url, data=data, headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return json.loads(resp.read().decode("utf-8"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--deck", required=True, help="SPICE netlist file to analyse")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument("--model", default=None, help="model name (optional iff one model served)")
    parser.add_argument("--deadline", type=float, default=None, help="cooperative budget in seconds")
    parser.add_argument("--trace", choices=("none", "inline", "file"), default="none")
    parser.add_argument(
        "--check-observability",
        action="store_true",
        help="validate the inline trace and /healthz + /metrics (smoke-test mode)",
    )
    args = parser.parse_args(argv)

    base = f"http://{args.host}:{args.port}"
    with open(args.deck, "r", encoding="utf-8") as handle:
        deck = handle.read()

    payload: dict = {"netlist": deck, "trace": args.trace}
    if args.model is not None:
        payload["model"] = args.model
    if args.deadline is not None:
        payload["deadline_seconds"] = args.deadline

    try:
        body = _request(f"{base}/analyze", payload)
    except urllib.error.HTTPError as exc:
        detail = exc.read().decode("utf-8", "replace")
        print(f"FAIL: POST /analyze -> HTTP {exc.code}: {detail}", file=sys.stderr)
        return 1

    if body.get("state") != "done":
        print(f"FAIL: job finished in state {body.get('state')!r}: {body}", file=sys.stderr)
        return 1

    result = body["result"]
    print(f"model              {result['model']} ({result['model_fingerprint'][:12]})")
    print(f"worst IR drop      {result['worst_predicted_drop_volts']:.6f} V")
    print(f"mean IR drop       {result['mean_predicted_drop_volts']:.6f} V")
    print(f"duration           {result['duration_seconds']:.3f} s  stages={result['stage_seconds']}")
    print(f"amg_setup_cache    {result['amg_setup_cache']}")

    if not args.check_observability:
        return 0

    failures: list[str] = []
    if args.trace == "inline":
        from repro.obs.export import validate_trace_lines

        lines = result.get("trace")
        if not lines:
            failures.append("response carried no inline trace")
        else:
            failures += [f"trace schema: {err}" for err in validate_trace_lines(lines)]

    health = _request(f"{base}/healthz", timeout=30.0)
    if health.get("status") not in ("ok", "draining"):
        failures.append(f"/healthz reported {health!r}")

    metrics = _request(f"{base}/metrics", timeout=30.0)
    if metrics.get("counters", {}).get("serve.completed", 0) < 1:
        failures.append(f"/metrics missing serve.completed: {metrics.get('counters')}")
    if "amg_setup_cache" not in metrics:
        failures.append("/metrics missing amg_setup_cache block")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("observability checks passed (trace schema, registry, /healthz, /metrics)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
