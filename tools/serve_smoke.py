#!/usr/bin/env python3
"""Serve smoke: pipe a mixed request batch through ctsimd over stdin
and verify every line of the response stream.

The batch is the daemon's whole protocol surface in one session: N
synthesize requests of mixed size (some with the refine pass toggled
off), one malformed line (must produce a typed invalid_input error
WITHOUT killing the session), one `stats` probe mid-stream, and a
final `shutdown` whose embedded stats must account for every request:
served_ok == N, malformed == 1, failed == rejected == 0.

Exit 0 on a fully-accounted session, 1 on any missing/implausible
response, 2 on usage errors. CI runs this against the sanitizer
builds, so a leak or race anywhere on the serving path fails here.

usage: serve_smoke.py <path-to-ctsimd> [n_requests] [workers]
"""

import json
import subprocess
import sys


def sink_count(i):
    return 40 + 12 * (i % 5)


def main():
    if len(sys.argv) < 2:
        print(__doc__)
        return 2
    daemon = sys.argv[1]
    n = int(sys.argv[2]) if len(sys.argv) > 2 else 20
    workers = sys.argv[3] if len(sys.argv) > 3 else "2"

    lines = []
    for i in range(n):
        req = {"id": i, "synthetic": {"sinks": sink_count(i),
                                      "span_um": 6000.0, "seed": i + 1}}
        if i % 3 != 0:
            req["options"] = {"skew_refine": False}
        lines.append(json.dumps(req))
    lines.append("this is not json")
    lines.append(json.dumps({"id": "s", "type": "stats"}))
    lines.append(json.dumps({"id": "bye", "type": "shutdown"}))

    proc = subprocess.run([daemon, "--fit-quick", "--workers", workers],
                          input="\n".join(lines) + "\n",
                          capture_output=True, text=True, timeout=900)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"error: ctsimd exited {proc.returncode}")
        return 1

    responses = [json.loads(l) for l in proc.stdout.splitlines() if l.strip()]
    by_id = {json.dumps(r.get("id")): r for r in responses}
    failures = []

    if len(responses) != n + 3:
        failures.append(f"expected {n + 3} response lines, got {len(responses)}")
    for i in range(n):
        r = by_id.get(str(i))
        if r is None:
            failures.append(f"request {i}: no response")
        elif not r.get("ok"):
            failures.append(f"request {i}: {r.get('error')}")
        elif (r["result"]["nodes"] <= 0
              or r["result"]["sinks"] != sink_count(i)):
            failures.append(f"request {i}: implausible result {r['result']}")

    bad = [r for r in responses if not r.get("ok")]
    if (len(bad) != 1
            or bad[0].get("error", {}).get("code") != "invalid_input"):
        failures.append("expected exactly one invalid_input error for the "
                        f"malformed line, got {bad}")

    probe = by_id.get('"s"')
    if probe is None or not probe.get("ok") or "stats" not in probe:
        failures.append(f"stats probe failed: {probe}")

    bye = by_id.get('"bye"')
    if bye is None or not bye.get("ok") or not bye.get("shutdown"):
        failures.append(f"shutdown response failed: {bye}")
    else:
        s = bye["stats"]
        for key, want in (("served_ok", n), ("malformed", 1),
                          ("failed", 0), ("rejected", 0)):
            if s.get(key) != want:
                failures.append(f"final stats {key}: want {want}, "
                                f"got {s.get(key)}")
        print(f"serve smoke: {s.get('served_ok')} served on "
              f"{s.get('workers')} workers, p50 {s.get('p50_ms', 0):.1f} ms, "
              f"p99 {s.get('p99_ms', 0):.1f} ms, "
              f"peak RSS {s.get('peak_rss_mb', 0):.1f} MB")

    if failures:
        print(f"SERVE SMOKE FAILED ({len(failures)}):")
        for f in failures:
            print("  " + f)
        return 1
    print(f"serve smoke OK: {n} mixed requests + malformed + stats + "
          f"shutdown all accounted for")
    return 0


if __name__ == "__main__":
    sys.exit(main())
