"""The benchmark's span tracer (``perfbench/tracer.py``) wraps graftkit
functions by name: ``Tracer.install`` reads ``owner.__dict__[attr]`` for each
entry of its ``TARGETS``, and some span-info readers take arguments by
position.  These checks load the tracer read-only, so a renamed or re-signed
traced function fails here rather than only in a ``--trace 1`` run."""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    """The tracer module, loaded without writing a bytecode cache next to it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


tracer = _load_tracer()

# leading parameters that the tracer's span-info readers take by position
POSITIONAL = {
    ("graftkit.nn:DecoderLM", "generate"): ["self", "soft_prompts", "prompt_ids"],
    ("graftkit.nn:DecoderLM", "batch_loss"): ["self", "tokens"],
    ("graftkit.nn:ImageEncoder", "forward"): ["self", "images"],
    ("graftkit.qformer:QFormerModel", "forward"): ["self", "grids", "tokens", "lengths", "mode"],
    ("graftkit.autograd:Tape", "gradients"): ["self"],
}


@pytest.mark.parametrize("owner,attr", sorted({(t[0], t[1]) for t in tracer.TARGETS}))
def test_tracer_target_resolves(owner, attr):
    raw = tracer._resolve(owner).__dict__.get(attr)
    assert raw is not None, f"{owner} has no attribute {attr!r} of its own"
    fn = raw.__func__ if isinstance(raw, staticmethod) else raw
    assert callable(fn)
    want = POSITIONAL.get((owner, attr))
    if want is not None:
        assert list(inspect.signature(fn).parameters)[: len(want)] == want


def test_every_positional_reader_is_a_target():
    assert set(POSITIONAL) <= {(t[0], t[1]) for t in tracer.TARGETS}
