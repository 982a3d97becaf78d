"""Inverse mapping tests: σd⁻¹(σd(T)) = T (Theorems 3.3 / 4.3)."""

import pytest

from repro.cli import embedding_to_json, main
from repro.core.errors import InverseError
from repro.core.instmap import InstMap
from repro.core.inverse import invert, run_invert
from repro.core.inverse_queries import invert_via_queries
from repro.dtd.generate import random_instance
from repro.dtd.serialize import dtd_to_text
from repro.engine.session import Engine
from repro.serve.handlers import ServiceState, dispatch
from repro.workloads.noise import expand_schema
from repro.workloads.library import SCHEMA_LIBRARY
from repro.xtree.nodes import elem, tree_equal
from repro.xtree.parser import parse_xml
from repro.xtree.serialize import to_string


def test_roundtrip_school_example(school):
    instmap = InstMap(school.sigma1)
    for seed in range(10):
        instance = random_instance(school.classes, seed=seed, max_depth=9)
        mapped = instmap.apply(instance)
        assert tree_equal(invert(school.sigma1, mapped.tree), instance)


def test_roundtrip_students(school):
    instmap = InstMap(school.sigma2)
    for seed in range(10):
        instance = random_instance(school.students, seed=seed)
        mapped = instmap.apply(instance)
        assert tree_equal(invert(school.sigma2, mapped.tree), instance)


@pytest.mark.parametrize("name", sorted(SCHEMA_LIBRARY))
def test_roundtrip_library_expansions(name):
    source = SCHEMA_LIBRARY[name]()
    expansion = expand_schema(source, seed=5)
    instmap = InstMap(expansion.embedding)
    for seed in range(3):
        instance = random_instance(source, seed=seed, max_depth=8)
        mapped = instmap.apply(instance)
        assert tree_equal(invert(expansion.embedding, mapped.tree), instance)


def test_inverse_rejects_wrong_root(school):
    with pytest.raises(InverseError):
        invert(school.sigma1, elem("not-school"))


def test_inverse_strict_detects_missing_paths(school):
    instance = parse_xml(
        "<db><class><cno>1</cno><title>t</title>"
        "<type><project>p</project></type></class></db>")
    mapped = InstMap(school.sigma1).apply(instance)
    # Corrupt the image: drop the cno holder under basic.
    course = mapped.tree.children_tagged("courses")[0] \
        .children_tagged("current")[0].children_tagged("course")[0]
    basic = course.children_tagged("basic")[0]
    basic.children = [c for c in basic.children if c.tag != "cno"]
    with pytest.raises(InverseError):
        invert(school.sigma1, mapped.tree)


def test_inverse_detects_broken_disjunction(school):
    instance = parse_xml(
        "<db><class><cno>1</cno><title>t</title>"
        "<type><project>p</project></type></class></db>")
    mapped = InstMap(school.sigma1).apply(instance)
    course = mapped.tree.children_tagged("courses")[0] \
        .children_tagged("current")[0].children_tagged("course")[0]
    category = course.children_tagged("category")[0]
    category.children = []  # neither mandatory nor advanced
    with pytest.raises(InverseError):
        invert(school.sigma1, mapped.tree)


def test_query_driven_inverse_agrees(school):
    """The Theorem 3.3 proof algorithm reconstructs the same tree."""
    instmap = InstMap(school.sigma1)
    for seed in range(4):
        instance = random_instance(school.classes, seed=seed, max_depth=7)
        mapped = instmap.apply(instance)
        structural = invert(school.sigma1, mapped.tree)
        query_driven = invert_via_queries(school.sigma1, mapped.tree)
        assert tree_equal(structural, query_driven)
        assert tree_equal(query_driven, instance)


def test_query_driven_inverse_students(school):
    instmap = InstMap(school.sigma2)
    instance = random_instance(school.students, seed=3)
    mapped = instmap.apply(instance)
    assert tree_equal(invert_via_queries(school.sigma2, mapped.tree),
                      instance)


def test_query_driven_inverse_rejects_wrong_root(school):
    with pytest.raises(InverseError):
        invert_via_queries(school.sigma1, elem("zzz"))


def test_inverse_preserves_pcdata_verbatim(school):
    instance = parse_xml(
        "<db><class><cno>  spaces &amp; symbols  </cno><title></title>"
        "<type><project>p</project></type></class></db>",
        keep_whitespace=True)
    # title with empty text is not valid for P(title)=str (needs one
    # text node) — patch in an explicit empty-ish value instead.
    title = instance.children_tagged("class")[0].children_tagged("title")[0]
    from repro.xtree.nodes import TextNode

    title.children = []
    title.append(TextNode("x y"))
    mapped = InstMap(school.sigma1).apply(instance)
    recovered = invert(school.sigma1, mapped.tree)
    cno = recovered.children_tagged("class")[0].children_tagged("cno")[0]
    assert cno.child_text() == "  spaces & symbols  "


# -- σd⁻¹ error bytes, pinned on every surface ---------------------------------

SCHOOL_DOCUMENT = ("<db><class><cno>1</cno><title>t</title>"
                   "<type><project>p</project></type></class></db>")
BIB_DOCUMENT = ("<bib><entry><book><title>T</title><authors><author>A"
                "</author></authors><publisher>P</publisher><year>2005"
                "</year></book></entry></bib>")

#: (pair, source document, text replaced in its compact mapped image,
#: replacement, the InverseError text) — one row per message of
#: ``repro.core.inverse``.
INVERSE_ERRORS = (
    ("school", SCHOOL_DOCUMENT, "school>", "schule>",
     "document root <schule> is not the target root <school>"),
    ("school", SCHOOL_DOCUMENT, "<cno>1</cno>", "",
     "AND path basic/cno missing below <course> (image of class)"),
    ("school", SCHOOL_DOCUMENT, "<cno>1</cno>", "<cno><b/></cno>",
     "text path text() endpoint <cno> holds element content "
     "(image of cno)"),
    ("school", SCHOOL_DOCUMENT, "</advanced>",
     "</advanced><mandatory><regular/></mandatory>",
     "ambiguous disjunction at image of type: ['regular', 'project'] "
     "all present"),
    ("school", SCHOOL_DOCUMENT, "<advanced><project>p</project></advanced>",
     "", "no alternative of type present below <category>"),
    ("school", SCHOOL_DOCUMENT, "current>", "currant>",
     "STAR path prefix courses/current missing below <school> "
     "(image of db)"),
    ("bib", BIB_DOCUMENT, "<strleaf35>T</strleaf35>", "",
     "text path w36/strleaf35/text() missing below <title> "
     "(image of title)"),
    ("bib", BIB_DOCUMENT, "entry>", "entree>",
     "STAR path suffix missing under <inst1> instance (image of bib)"),
)


def _pair(name: str, school):
    if name == "school":
        return school.sigma1
    return expand_schema(SCHEMA_LIBRARY[name](), seed=5).embedding


@pytest.mark.parametrize("name,document,old,new,expected", INVERSE_ERRORS)
def test_inverse_error_bytes_on_every_surface(name, document, old, new,
                                              expected, school, tmp_path,
                                              capsys):
    """A corrupted image raises the same ``InverseError`` text from
    ``run_invert``, ``Engine.invert``, ``/v1/invert`` and
    ``repro invert``."""
    sigma = _pair(name, school)
    mapped = to_string(InstMap(sigma).apply(parse_xml(document)).tree,
                       indent=None)
    assert old in mapped
    corrupted = mapped.replace(old, new)

    with pytest.raises(InverseError) as walked:
        run_invert(sigma, parse_xml(corrupted))
    assert str(walked.value) == expected

    with pytest.raises(InverseError) as engine_error:
        Engine().invert(sigma, parse_xml(corrupted))
    assert str(engine_error.value) == expected

    state = ServiceState.from_embedding(sigma)
    status, payload = dispatch(state, "POST", "/v1/invert",
                               {"xml": corrupted})
    assert status == 200
    assert payload["result"]["error"] == f"InverseError: {expected}"

    paths = []
    for file_name, text in (("source.dtd", dtd_to_text(sigma.source)),
                            ("target.dtd", dtd_to_text(sigma.target)),
                            ("sigma.json", embedding_to_json(sigma)),
                            ("mapped.xml", corrupted)):
        path = tmp_path / file_name
        path.write_text(text)
        paths.append(str(path))
    capsys.readouterr()
    assert main(["invert", *paths]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"repro: error: {expected}\n"
