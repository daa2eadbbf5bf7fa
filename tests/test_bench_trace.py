"""The traced benchmark patches package names by name; keep them there.

perfbench/bench_trace.py replaces module attributes such as
`cascadev.learner.ia_voting` with spanned wrappers. A refactor that drops
one of those names would only fail under `perfbench/run.py --trace 1`;
this test makes the plain suite fail instead.
"""

import os
import sys

import cascadev

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

from bench_trace import Tracer, instrument  # noqa: E402


def test_instrument_patches_and_restores_every_name():
    before = {name: getattr(cascadev.cascade, name)
              for name in ("ia_voting", "assign_targets", "decode_box", "update_point")}
    undo = instrument(Tracer(), cascadev)
    try:
        assert cascadev.cascade.ia_voting is not before["ia_voting"]
    finally:
        undo()
    for name, fn in before.items():
        assert getattr(cascadev.cascade, name) is fn
