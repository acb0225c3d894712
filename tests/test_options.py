"""The option set is pinned: every src parameter with a default, and every
config key.

A parameter with a default is a knob a caller may leave alone, and a config
key is one a run may set.  A change that adds, renames or drops one edits the
lists below, so the change is a decision the diff shows.
"""

import ast
from pathlib import Path

import orbmorse
from orbmorse import cli

SRC = Path(orbmorse.__file__).parent

DEFAULTED_PARAMETERS = [
    "catalog._build_local_model(a)",
    "catalog._build_local_model(character)",
    "catalog._build_local_model(k)",
    "catalog._build_local_model(weights)",
    "catalog._build_torus(d)",
    "catalog._build_torus(k)",
    "catalog._build_weighted_projective(dent)",
    "catalog._build_weighted_projective(weights)",
    "cli.main(argv)",
    "curvature.classify_point(tol)",
    "curvature.curvature_spectrum(chart_index)",
    "curvature.curvature_spectrum(tol)",
    "curvature.morse_integral(resolution)",
    "curvature.signature_integrals(resolution)",
    "curvature.signature_integrals(tol)",
    "errors._degree(low)",
    "errors._finite(kind)",
    "errors._finite(kinds)",
    "geometry.OrbifoldChart.__new__(box_radius)",
    "geometry.OrbifoldChart.__new__(bump)",
    "geometry.OrbifoldChart.__new__(metric_scalar)",
    "geometry.cyclic_group(character)",
    "geometry.orbifold_integrate(resolution)",
    "geometry.radial_blocks(corners)",
    "kernels.ModelPoint.__new__(group_phases)",
    "moishezon.kodaira_rank(rng)",
    "moishezon.moishezon_check(quadrature_tolerance)",
    "spectral._torus(q)",
    "spectral.assemble_kodaira_laplacian(resolution)",
    "verify._truncated_operator(resolution)",
    "verify.exact_chain_residuals(resolution)",
    "verify.oracle_consistency(degree)",
    "verify.telescoping_identity_gap(resolution)",
    "verify.torus_diagonal_kernel_image(degree)",
    "verify.trace_equals_diagonal_integral(degree)",
    "verify.trace_equals_diagonal_integral(grid)",
    "verify.trace_equals_diagonal_integral(resolution)",
]

# each section's accepted keys, None the config root's
CONFIG_KEYS = {
    None: ["catalog", "output", "run", "seed", "tolerances"],
    "catalog": ["id", "params"],
    "output": ["report_name"],
    "run": ["p_list", "q_list", "resolution_quadrature", "resolution_spectral", "u_list"],
    "tolerances": ["tol_chain", "tol_degeneracy", "tol_quadrature"],
}


def defaulted(node, where):
    """``where(name)`` for each parameter of the function ``node`` with a default."""
    args = node.args
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    names += [a.arg for a, default in zip(args.kwonlyargs, args.kw_defaults)
              if default is not None]
    return [f"{where}({name})" for name in names]


def walk(node, prefix):
    """The defaulted parameters of every function and method under ``node``,
    each named by its module and enclosing classes and functions."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            if not isinstance(child, ast.ClassDef):
                found += defaulted(child, name)
            found += walk(child, name)
        elif isinstance(child, ast.Lambda):
            found += defaulted(child, f"{prefix}.<lambda>")
            found += walk(child, prefix)
        else:
            found += walk(child, prefix)
    return found


def src_defaulted_parameters():
    return sorted(entry for path in SRC.glob("*.py")
                  for entry in walk(ast.parse(path.read_text(encoding="utf-8")), path.stem))


def test_every_defaulted_parameter_is_pinned():
    assert src_defaulted_parameters() == DEFAULTED_PARAMETERS


def test_every_config_key_is_pinned():
    assert {section: sorted(keys) for section, keys in cli.CONFIG_KEYS.items()} == CONFIG_KEYS


def test_a_new_knob_fails_the_pin():
    """A defaulted keyword anywhere, a method's or a nested function's too, is found."""
    tree = ast.parse("class A:\n    def f(self, x, *, y=1):\n        def g(z=2): pass\n"
                     "h = lambda w=3: w\n")
    assert sorted(walk(tree, "m")) == ["m.<lambda>(w)", "m.A.f(y)", "m.A.f.g(z)"]
