"""The public surface: README's library example runs as printed, and every
name the package exports resolves."""

import contextlib
import io
import pathlib
import re

import catmoments

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


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
                 "_scaled_section"):
        assert not hasattr(catmoments, gone) and not hasattr(catmoments.jacobi, gone)
    assert not hasattr(catmoments, "hankel_det_products")
    assert not hasattr(catmoments.hankel, "hankel_det_products")
    assert not hasattr(catmoments, "leading_principal_minors")
    assert not hasattr(catmoments.exact, "leading_principal_minors")
