"""The public surface: README's library example runs as printed, every
name the package exports resolves, and each is used by the package itself."""

import ast
import contextlib
import inspect
import io
import pathlib
import re

import catmoments

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = pathlib.Path(catmoments.__file__).resolve().parent


def test_readme_library_example_prints_what_it_says():
    library = README.read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    expected = re.findall(r"^print\(.*\)  # (.+)$", code, re.M)
    assert "stieltjes_check(terms, 8)" in code and expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_every_exported_name_resolves():
    assert len(set(catmoments.__all__)) == len(catmoments.__all__)
    missing = [name for name in catmoments.__all__ if not hasattr(catmoments, name)]
    assert missing == []
    for gone in ("MomentSequence", "TotalsDiagonal", "hankel_det_product", "ClosedFormGF",
                 "TiedQGF", "TiedQPGF", "InverseSqrtGF", "NamedGF", "GF_TYPES", "solve_h",
                 "closed_form_h", "closed_form_d", "sqrt_discriminant", "poly_eval", "solve_d",
                 "Series", "radical_quotient"):
        assert not hasattr(catmoments, gone) and not hasattr(catmoments.series, gone)
    for gone in ("RecursiveMatrix", "build_recursive"):
        assert not hasattr(catmoments, gone) and not hasattr(catmoments.recursive, gone)
    for gone in ("JacobiMatrix", "leading_minors", "_leading_minors_report",
                 "_contiguous_minors_report", "jacobi_section", "window_minors",
                 "_scaled_section", "_tail_poly", "DOMINANCE_GUARD_INDEX", "_eventually_nonneg",
                 "tp_check_sections", "MAX_WINDOWS"):
        assert not hasattr(catmoments, gone) and not hasattr(catmoments.jacobi, gone)
    # no route answers INCONCLUSIVE: the verdict lives in tests/oracle.py
    assert not hasattr(catmoments, "INCONCLUSIVE") and not hasattr(catmoments.exact, "INCONCLUSIVE")
    # dominance decides the tails exactly: no probe depth to pass
    assert list(inspect.signature(catmoments.tp_sufficient_dominance).parameters) == [
        "sigma", "tau"]
    assert not hasattr(catmoments, "hankel_det_products")
    assert not hasattr(catmoments.hankel, "hankel_det_products")
    assert not hasattr(catmoments, "leading_principal_minors")
    assert not hasattr(catmoments.exact, "leading_principal_minors")
    for gone in ("DenseMatrix", "det_bareiss", "_require_square"):
        assert not hasattr(catmoments, gone) and not hasattr(catmoments.exact, gone)
    for gone in ("build_hankel", "hankel_dets"):
        assert not hasattr(catmoments, gone) and not hasattr(catmoments.hankel, gone)
    for gone in ("dets0", "dets1"):
        assert not hasattr(catmoments.StieltjesReport, gone)
    for cls, gone in ((catmoments.ConstantTail, "eval"), (catmoments.PolynomialTail, "eval"),
                      (catmoments.SequenceSpec, "eval"), (catmoments.SequenceSpec, "values")):
        assert not hasattr(cls, gone)


def test_every_exported_name_is_used_by_another_module():
    # a name only the tests use belongs in tests/oracle.py; imports,
    # definitions and docstrings are not uses
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    assert [name for name in catmoments.__all__ if name not in used] == []
