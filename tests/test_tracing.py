"""The perfbench tracer wraps package methods it finds in each class's own
``__dict__`` and module functions at every package attribute that holds
them. These tests keep the names it patches where it looks for them, and
check that ``remove()`` puts every one back."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracing import Tracer  # noqa: E402

from guidesampler.denoising import ExactDenoiser  # noqa: E402
from guidesampler.predictors import ExactMarginalPredictor  # noqa: E402


def package_names():
    """(owner, attribute) -> value for every package module attribute and
    every attribute of the classes the package defines."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "guidesampler" and not mod_name.startswith("guidesampler."):
            continue
        for attr, value in vars(mod).items():
            out[(mod_name, attr)] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                for cls_attr, cls_value in value.__dict__.items():
                    out[(value.__qualname__, cls_attr)] = cls_value
    return out


class TestTracerPatches:
    def test_install_then_remove_restores_every_name(self):
        before = package_names()
        tracer = Tracer()
        try:
            tracer.install()
            patched = package_names()
            changed = {key for key, value in before.items() if patched[key] is not value}
            assert ("ExactDenoiser", "posterior_array") in changed
            assert ("ExactMarginalPredictor", "likelihood_array") in changed
            assert ("guidesampler.sampling", "aoarm_sample_many") in changed
        finally:
            tracer.remove()
        after = package_names()
        assert after.keys() == before.keys()
        assert all(after[key] is value for key, value in before.items())

    def test_tabular_methods_are_defined_on_their_own_classes(self):
        assert "posterior_array" in ExactDenoiser.__dict__
        assert "likelihood_array" in ExactMarginalPredictor.__dict__
