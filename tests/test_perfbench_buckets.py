"""Every function the traced benchmark pass wraps has a metric bucket.

perfbench/spans.py wraps each public function of its layer modules; a
span name that bucket() does not know would end a traced pass at its
first call. This walks the same functions Recorder.install wraps,
without installing anything.
"""

import importlib
import pathlib
import sys
import types

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402


def wrapped_names():
    """The span names of the functions Recorder.install would wrap."""
    names = []
    for layer in spans.LAYERS:
        mod = importlib.import_module("drcs_forge." + layer)
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__):
                names.append("%s.%s" % (layer, attr))
        for cls_name in spans.WRAPPED_CLASSES.get(layer, ()):
            for attr, obj in vars(getattr(mod, cls_name)).items():
                if not attr.startswith("_") and isinstance(obj, (types.FunctionType, classmethod)):
                    names.append("%s.%s.%s" % (layer, cls_name, attr))
    return names


def test_every_wrapped_function_has_a_bucket():
    names = wrapped_names()
    assert "rectangles.verify_c2" in names and "ambiguity.af_grid" in names
    for name in names:
        # af_grid spans are named by method, see Recorder._wrap
        for span in ([name + ":fft", name + ":naive"] if name == "ambiguity.af_grid"
                     else [name]):
            assert spans.bucket(span) in spans.TIME_METRICS, span
