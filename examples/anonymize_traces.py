#!/usr/bin/env python3
"""Trace anonymization for public release (paper §3.1 "Anonymization").

LANL releases traces of production applications to collaborators (§4.1);
sensitive fields (usernames, hostnames, paths) must go.  This example
collects a trace with Tracefs and shows both taxonomy levels:

* Tracefs's own **field-selective CBC encryption** (level 4 "Advanced":
  recoverable with the key — "non-zero probability of trace encryption
  being subverted");
* the library's **randomizing anonymizer** (true anonymization: the
  paper's missing level-5 feature) applied before release.

Run:  python examples/anonymize_traces.py
"""

import base64

from repro.frameworks.tracefs.framework import Tracefs, TracefsConfig
from repro.harness.experiment import run_traced
from repro.trace.anonymize import RandomizingAnonymizer, anonymize_bundle
from repro.trace.crypto import cbc_decrypt
from repro.trace.text_format import encode_event
from repro.units import KiB
from repro.workloads.generators import io_intensive

KEY = b"0123456789abcdef"


def main() -> None:
    print("collecting a trace with Tracefs (CBC-encrypting user+path)...")
    _, traced = run_traced(
        lambda: Tracefs(
            TracefsConfig(
                target_mount="/tmp",
                encrypt_fields=("user", "path"),
                encryption_key=KEY,
            )
        ),
        io_intensive,
        {"base": "/tmp/projects/secret-app", "n_files": 3,
         "file_size": 64 * KiB, "block_size": 32 * KiB},
        nprocs=1,
    )
    bundle = traced.bundle
    sample = next(e for e in bundle.all_events() if e.name == "vfs_open")

    print("\n=== Tracefs output (encrypted fields) ===")
    print(encode_event(sample, annotated=False))
    print("user field: %s..." % sample.user[:24])

    blob = base64.urlsafe_b64decode(sample.user[4:])
    print("with the key, the owner can still recover it: %r"
          % cbc_decrypt(KEY, blob[:8], blob[8:]).decode())

    print("\n=== Randomizing anonymization for release (irrecoverable) ===")
    released = anonymize_bundle(bundle, RandomizingAnonymizer())
    sample2 = next(e for e in released.all_events() if e.name == "vfs_open")
    print(encode_event(sample2, annotated=False))
    print("user field: %s (random pseudonym, mapping not stored)" % sample2.user)

    leaked = [
        e for e in released.all_events()
        if "secret-app" in str(e.args) + str(e.path or "") + e.user
    ]
    print("\nevents still mentioning 'secret-app' after release scrub: %d" % len(leaked))
    assert not leaked


if __name__ == "__main__":
    main()
