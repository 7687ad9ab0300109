"""The record types: what callers see of them, and what importing the
package costs."""

import subprocess
import sys
from pathlib import Path

import pytest

from pultr.chromatic import ColouringCertificate, PowerBoundReport
from pultr.duality import DualityJob, DualityReport, SproinkRecipe
from pultr.engine import HomWitness
from pultr.functors import PultrTemplate
from pultr.graphs import Digraph, directed_path, transitive_tournament
from pultr.suites import SuiteReport

SRC = Path(__file__).resolve().parent.parent / "src"

ARC = Digraph(2, [(0, 1)])

# (type, field names, required values, defaults, values of every field,
# repr of the record of those values, its truth value)
RECORDS = [
    (
        SuiteReport,
        ("name", "ok", "checked", "failures", "notes", "artifacts"),
        ("demo", False, 3),
        ((), (), ()),
        ("demo", False, 3, ("bad",), ("a note",), (("g", ARC),)),
        "SuiteReport(name='demo', ok=False, checked=3, failures=('bad',), "
        "notes=('a note',), artifacts=(('g', Digraph(2, [(0, 1)])),))",
        True,
    ),
    (
        PultrTemplate,
        ("name", "p", "q", "eps1", "eps2", "symmetry"),
        ("arc", Digraph(1), ARC, (0,), (1,)),
        (None,),
        ("arc", Digraph(1), ARC, (0,), (1,), (1, 0)),
        "PultrTemplate(name='arc', p=Digraph(1, []), q=Digraph(2, [(0, 1)]), "
        "eps1=(0,), eps2=(1,), symmetry=(1, 0))",
        True,
    ),
    (
        SproinkRecipe,
        ("base", "pieces", "attachments"),
        (ARC, ((Digraph(1), (1,)), (Digraph(1), (0,))), ({0: 0}, {0: 0})),
        (),
        (ARC, ((Digraph(1), (1,)), (Digraph(1), (0,))), ({0: 0}, {0: 0})),
        "SproinkRecipe(base=Digraph(2, [(0, 1)]), pieces=((Digraph(1, []), (1,)), "
        "(Digraph(1, []), (0,))), attachments=({0: 0}, {0: 0}))",
        True,
    ),
    (
        DualityReport,
        ("ok", "checked", "counterexample", "direction"),
        (False, 9),
        (None, None),
        (False, 9, ARC, "missing-obstruction"),
        "DualityReport(ok=False, checked=9, counterexample=Digraph(2, [(0, 1)]), "
        "direction='missing-obstruction')",
        False,
    ),
    (
        DualityJob,
        ("family", "h"),
        ((directed_path(2),), transitive_tournament(2)),
        (),
        ((), ARC),
        "DualityJob(family=(), h=Digraph(2, [(0, 1)]))",
        True,
    ),
    (
        ColouringCertificate,
        ("target_name", "witness", "orientation", "family"),
        (),
        ("", None, None, ()),
        ("K2", HomWitness(2, 2, (0, 1)), "1", (("1", True),)),
        "ColouringCertificate(target_name='K2', witness=HomWitness("
        "source_order=2, target_order=2, mapping=(0, 1)), orientation='1', "
        "family=(('1', True),))",
        True,
    ),
    (
        PowerBoundReport,
        ("value", "attained_at", "successes", "skipped"),
        (None, None),
        ((), ()),
        (3, (0, 0), (((0, 0), 3),), ((1, 5),)),
        "PowerBoundReport(value=3, attained_at=(0, 0), successes=(((0, 0), 3),), "
        "skipped=((1, 5),))",
        True,
    ),
]


@pytest.mark.parametrize(
    "cls, names, required, defaults, values, text, truth",
    RECORDS,
    ids=[case[0].__name__ for case in RECORDS],
)
def test_record_types(cls, names, required, defaults, values, text, truth):
    short = cls(*required)
    assert short == cls(**dict(zip(names, required)))
    assert tuple(getattr(short, name) for name in names) == required + defaults

    record = cls(*values)
    keyword = cls(**dict(zip(names, values)))
    assert record == keyword and record is not keyword
    assert tuple(getattr(record, name) for name in names) == values
    assert repr(record) == text
    assert bool(record) is truth
    try:
        expected = hash(values)
    except TypeError:  # a SproinkRecipe's attachments are dicts
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(keyword) == expected
    if values != required + defaults:
        assert record != short
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_suite_report_verdict_line():
    assert SuiteReport("demo", True, 3).verdict_line() == "VERDICT demo PASS checked=3"
    failed = SuiteReport("demo", False, 3, ("first", "second"))
    assert failed.verdict_line() == "VERDICT demo FAIL checked=3 first-failure=first"


def test_import_loads_no_fractions():
    # Nothing on the path of a gated pass builds a Fraction, so the
    # package imports fractions (and with it decimal and numbers) only
    # inside the functions that do.  HomWitness stays a dataclass, since
    # dataclasses.replace is used on witnesses.
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import dataclasses, pultr, pultr.suites\n"
        "print(pultr.__file__)\n"
        "print(dataclasses.is_dataclass(pultr.HomWitness))\n"
        "print(sorted({'fractions', 'decimal', 'numbers'} & set(sys.modules)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code],
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    assert Path(out[0]).resolve().parent == SRC / "pultr"
    assert out[1:] == ["True", "[]"]
