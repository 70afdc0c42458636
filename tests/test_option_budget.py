"""The option budget: every parameter with a default in the library.

A parameter with a default is an option that callers may leave alone, so
an option with one value in use reads as a setting but is a constant.
The table below pins, for every function, class and method defined in the
library modules (all but the CLI, whose options are its flags), the names
of its parameters that have defaults; a class is listed by its
constructor.  Adding, removing or renaming an option means editing this
table, so the change shows in review.
"""

import importlib
import inspect
import pkgutil

import leafkit

OPTIONS = {
    "cross_section._section": ("corner_tol",),
    "cross_section.cross_section_phi": ("corner_tol",),
    "cross_section.minimal_polynomial": ("tol",),
    "cross_section.generated_algebra_dimension": ("tol",),
    "matrixio.obj_to_matrix": ("source",),
    "matrixio.parse_matrix_text": ("source",),
    "norming.PiSequence": ("rule", "alpha", "prefix", "horizon"),
    "norming.NormingFunctionSpec": ("p", "pi"),
    "opcore.as_matrix": ("name",),
    "opcore.require_square": ("name",),
    "opcore.within": ("m",),
    "opcore.defect_exceeds": ("m",),
    "opcore.require_hermitian": ("name",),
    "opcore.hermitian_companion": ("name",),
    "opcore.require_skew_hermitian": ("name",),
    "opcore.require_unitary": ("name",),
    "opcore.SpectralData": ("cluster_tol",),
    "opcore.SpectralData.from_hermitian": ("cluster_tol",),
    "opcore.SpectralData.from_eigh": ("cluster_tol",),
    "opcore.spectral_decompose": ("cluster_tol",),
    "opcore.matrix_exp": ("name",),
    "orbits.normal_frame": ("cluster_tol", "name"),
    "orbits.spectrum": ("name",),
    "symplectic._companion": ("name",),
    "symplectic.radical_check": ("sample_count", "seed"),
    "symplectic.polarization_properties": ("mask", "sample_count", "seed"),
    "symplectic.kaehler_check": ("sample_count", "seed"),
}


def _callables(module):
    """(qualified name, function) for every function and class defined in
    module, and every method a class defines; a constructor is named by
    its class."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                func = getattr(member, "__func__", member)
                if inspect.isfunction(func):
                    yield (name if attr == "__init__" else f"{name}.{attr}"), func


def test_options_are_the_pinned_table():
    found = {}
    for info in pkgutil.iter_modules(leafkit.__path__):
        if info.name == "cli":
            continue
        module = importlib.import_module(f"leafkit.{info.name}")
        for name, func in _callables(module):
            params = inspect.signature(func).parameters.values()
            defaulted = tuple(p.name for p in params if p.default is not p.empty)
            if defaulted:
                found[f"{info.name}.{name}"] = defaulted
    assert found == OPTIONS
