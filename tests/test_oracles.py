"""Each model's exact oracles live in its ``exact`` record, bound by the catalog.

Outside ``catalog.py`` no module names a model: no ``catalog_id`` comparison,
no ``.params`` read.  A route that needs an oracle the model lacks refuses it
with UnsupportedModelError, each route in its own words, which the matrix
below pins for every catalog family and a hand-built model.
"""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

import orbmorse
from orbmorse import cli, verify
from orbmorse.catalog import build_catalog_orbifold
from orbmorse.cohomology import cohomology_table
from orbmorse.errors import UnsupportedModelError
from orbmorse.geometry import (ChartedOrbifold, EquivariantLineBundle, ExactData, OrbifoldChart,
                               constant_field, cyclic_group)
from orbmorse.moishezon import kodaira_rank
from orbmorse.spectral import assemble_kodaira_laplacian

SRC = Path(orbmorse.__file__).parent


def model_branches(path):
    """(catalog_id comparisons, .params reads) of one module, as line numbers."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    compares = {node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
                for side in (node.left, *node.comparators)
                if isinstance(side, ast.Attribute) and side.attr == "catalog_id"}
    reads = {node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "params"}
    return sorted(compares), sorted(reads)


def test_no_module_but_the_catalog_names_a_model():
    """Every per-model decision reads the typed record, never the model's name."""
    found = {path.name: model_branches(path) for path in sorted(SRC.glob("*.py"))
             if path.name != "catalog.py"}
    assert {name: lines for name, lines in found.items() if lines != ([], [])} == {}


def level_eigenvalue_readers(path):
    """The top-level definitions of one module that read ``level_eigenvalue``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {getattr(node, "name", "<module>") for node in tree.body for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute) and sub.attr == "level_eigenvalue"}


def test_the_landau_heat_weights_are_built_in_spectral_alone():
    """Every heat weight e^{-u lambda / p} comes from ``spectral._level_weights``:
    outside ``spectral.py`` only ``verify._truncated_operator`` reads an
    eigenvalue, for the weight of the first level it leaves out."""
    found = {(path.name, name) for path in sorted(SRC.glob("*.py"))
             if path.name != "spectral.py" for name in level_eigenvalue_readers(path)}
    assert found == {("verify.py", "_truncated_operator")}


def hand_built():
    """A model built from the public API, with the default record: no oracle."""
    chart = OrbifoldChart(dimension=1, group=cyclic_group(1, (1,)), box_radius=0.5,
                          metric_scalar=constant_field(1.0))
    orb = ChartedOrbifold(charts=(chart,), singular_locus_fn=lambda ci, Z: 10.0,
                          catalog_id="custom")
    return orb, EquivariantLineBundle(curvature_scalars=(constant_field(2.0),))


def test_a_hand_built_model_has_no_oracle():
    orb, _ = hand_built()
    assert orb.exact == ExactData() and set(orb.exact) == {None}


MODELS = {
    "P(2,3)": lambda: build_catalog_orbifold("wps", weights=(2, 3)),
    "dented P(1,1)": lambda: build_catalog_orbifold("wps", weights=(1, 1), dent={}),
    "C/Z2": lambda: build_catalog_orbifold("local-model", k=2, a=(1.0,)),
    "torus d1 k2": lambda: build_catalog_orbifold("torus", d=1, k=2),
    "torus d0": lambda: build_catalog_orbifold("torus", d=0, k=1),
    "hand-built": hand_built,
}

X = np.array([0.3 + 0.2j])      # regular on C/Z2 and on the torus (distance > 0.25)
ROUTES = {
    "cohomology_table": lambda orb, bundle: cohomology_table(orb, [4, 8]),
    "kodaira_rank": lambda orb, bundle: kodaira_rank(orb, bundle, 4),
    "assemble_kodaira_laplacian":
        lambda orb, bundle: assemble_kodaira_laplacian(orb, bundle, 4, 0),
    "local_model_image_log_terms":
        lambda orb, bundle: verify.local_model_image_log_terms(orb, X, 1.0, [4]),
    "verify_kernel_asymptotics_regular":
        lambda orb, bundle: verify.verify_kernel_asymptotics_regular(orb, bundle, X, 1.0, [4, 8]),
    "verify_kernel_asymptotics_singular":
        lambda orb, bundle: verify.verify_kernel_asymptotics_singular(orb, bundle, X, 1.0, [4]),
    "singular_diagonal_factor":
        lambda orb, bundle: verify.singular_diagonal_factor(
            orb, bundle, np.zeros(1, dtype=complex), 1.0, 4),
}


def no_spectra(catalog_id):
    return (f"catalog id {catalog_id!r} has no spectral discretization or deck "
            "transformations; weighted projective models use the exact cohomology "
            "tables and local models the closed-form kernels instead")


NO_TABLE = "no exact cohomology is available for catalog id {!r}"
NO_SECTIONS = "the Kodaira map needs a compact catalog entry with explicit sections"
NO_GROUP = "group-element sums run on the local models"
NOT_FLAT = "kernel asymptotics require a flat model with an exact image-sum oracle"
NO_EXPANSION = "the corrected expansion ships for local models"
NO_DEGREE = "the curvature degree needs a compact catalog entry with an exact degree"
P_LINE = {"assemble_kodaira_laplacian": no_spectra("wps"),
          "local_model_image_log_terms": NO_GROUP,
          "verify_kernel_asymptotics_regular": NOT_FLAT,
          "verify_kernel_asymptotics_singular": NO_EXPANSION,
          "singular_diagonal_factor": NOT_FLAT}
# the message of each route a model lacks; every other route runs
REFUSALS = {
    "P(2,3)": P_LINE,
    "dented P(1,1)": P_LINE,
    "C/Z2": {"cohomology_table": NO_TABLE.format("local-model"),
             "kodaira_rank": NO_SECTIONS,
             "assemble_kodaira_laplacian": no_spectra("local-model")},
    "torus d1 k2": {"local_model_image_log_terms": NO_GROUP,
                    "verify_kernel_asymptotics_singular": NO_EXPANSION},
    "torus d0": {"assemble_kodaira_laplacian":
                 "bundle degree d=0 has no magnetic Fourier basis; spectra require d >= 1",
                 "local_model_image_log_terms": NO_GROUP,
                 "verify_kernel_asymptotics_singular": NO_EXPANSION},
    "hand-built": {"cohomology_table": NO_TABLE.format("custom"),
                   "kodaira_rank": NO_SECTIONS,
                   "assemble_kodaira_laplacian": no_spectra("custom"),
                   "local_model_image_log_terms": NO_GROUP,
                   "verify_kernel_asymptotics_regular": NOT_FLAT,
                   "verify_kernel_asymptotics_singular": NO_EXPANSION,
                   "singular_diagonal_factor": NOT_FLAT},
}


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("model", MODELS)
def test_each_route_refuses_a_model_without_its_oracle(model, route):
    """A route refuses exactly the models that lack its oracle, in its own words."""
    orb, bundle = MODELS[model]()
    refusal = REFUSALS[model].get(route)
    if refusal is None:
        ROUTES[route](orb, bundle)
        return
    with pytest.raises(UnsupportedModelError) as exc:
        ROUTES[route](orb, bundle)
    assert str(exc.value) == refusal


def test_all_skips_every_stage_a_hand_built_model_has_no_oracle_for(tmp_path, monkeypatch):
    """On a model without oracles `all` runs the curvature stages and the
    verdict, and skips the rest, each with its code: exit 0."""
    model = hand_built()
    monkeypatch.setattr(cli, "build_catalog_orbifold", lambda *args, **kwargs: model)
    cfg = cli.RunConfig(catalog_id="custom", catalog_params={}, resolution_quadrature=16)
    assert cli.run("all", cfg, tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    no_table = NO_TABLE.format("custom")
    assert report["diagnostics"] == []
    assert [(s["name"], s["reason"], s["message"]) for s in report["skipped"]] == [
        (name, "model-not-applicable", message) for name, message in [
            ("cohomology", no_table),
            ("heat-trace", "heat traces require the flat torus catalog entry"),
            ("trace-chain", no_spectra("custom")),
            ("trace-identity", no_spectra("custom")),
            ("strong-morse-q0", no_table),
            ("strong-morse-q1", no_table),
            ("curvature-degree", NO_DEGREE),
            ("kernel-asymptotics", "kernel asymptotics run on the local quotient models"),
            ("bigness", no_table)]]
    assert [(r["name"], r["passed"]) for r in report["results"]] == [
        ("curvature-integral-q0", True), ("curvature-integral-q1", True),
        ("moishezon-verdict", True)]
