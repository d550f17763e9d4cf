"""The package's public names, and the names the benchmark reads.

A change of `mvlab.__all__` edits the literal below in the same change.
The benchmark's tracer (`perfbench/tracer.py`) wraps the functions its
`LAYERS` table names, looked up by attribute path at run time; the
table is read here as source, so a deletion of a name it needs fails
here rather than only in the benchmark's own, slower suite.
"""

import ast
import importlib
from pathlib import Path

import mvlab
from mvlab.exact import LaurentT

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

API = [
    "AgnTable", "AsymFit", "BigFloat", "GOLDEN_TABLE1", "GenusCoeffs", "LaurentT", "PiScaled",
    "__version__", "a_alt", "a_direct", "agn_from_series", "bernoulli", "build_table", "cg_seq",
    "coeffs_C", "compare_report", "conjectured_C", "conjectured_m", "estimate_C", "estimate_m",
    "kappa", "kazarian_c", "lambda_g_value", "load_table", "normalize_vol", "richardson_fit",
    "run_suite", "save_table", "sv_constant", "tilde_u", "u_direct", "u_from_tilde",
    "verify_functional_eqs", "volume", "volume_closed_g0", "volume_closed_g1",
]


def test_public_names_are_pinned():
    assert sorted(mvlab.__all__) == API
    assert all(hasattr(mvlab, name) for name in API)


def _tracer_layers():
    for node in ast.parse(_TRACER.read_text(), str(_TRACER)).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {_TRACER}")


def test_every_traced_layer_resolves():
    layers = _tracer_layers()
    assert layers
    for name, module, path in layers:
        obj = importlib.import_module(f"mvlab.{module}")
        for part in path.split("."):
            assert hasattr(obj, part), (name, module, path)
            obj = getattr(obj, part)
        assert callable(obj), (name, module, path)
    # perfbench/child.py reads each traced profile's coefficients through items.
    assert LaurentT({-3: 1}).items() == [(-3, 1)]
