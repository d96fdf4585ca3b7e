"""The package's value records (``ryslab.records.Record``): constructors,
immutability, value equality and ``replace``, class by class; set-up
without ``dataclasses``; and memo lookups that hash a key once."""

import copy
import inspect
import os
import pickle
import subprocess
import sys

import pytest

from ryslab import catalog, cli, curvature, geometry, identities, quadrature, report, soliton, solver
from ryslab.records import Record

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# A constructor parameter with no default, and the default of a fresh list.
REQUIRED = inspect.Parameter.empty
FRESH_LIST = object()


def _fn(x):
    return 0.0


def _other_fn(x):
    return 1.0


DOMAIN = geometry.ChartDomain(2, ((0.0, 1.0), (0.0, 1.0)), "box")
METRIC = geometry.MetricField(_fn, DOMAIN, "g")
PARAMS = soliton.SolitonParams(1.0, 0.5, -1.0)

# Each former dataclass: its constructor parameters and defaults (as
# ``dataclasses`` made them), a builder of sample field values (each call
# gives equal values, built anew where they are not shared functions or
# records), and a field with a value that makes the record differ.
RECORDS = {
    "geometry.ChartDomain": (
        geometry.ChartDomain, (("dim", REQUIRED), ("bounds", REQUIRED), ("label", "chart")),
        lambda: dict(dim=2, bounds=((0.0, 1.0), (0.0, 2.0)), label="box"), ("label", "other"),
    ),
    "geometry.ChartPoint": (
        geometry.ChartPoint, (("coords", REQUIRED),),
        lambda: dict(coords=(0.25, 0.5)), ("coords", (0.25, 0.75)),
    ),
    "geometry.ScalarField": (
        geometry.ScalarField, (("fn", REQUIRED), ("domain", REQUIRED), ("name", "scalar")),
        lambda: dict(fn=_fn, domain=DOMAIN, name="f"), ("fn", _other_fn),
    ),
    "geometry.VectorField": (
        geometry.VectorField, (("fn", REQUIRED), ("domain", REQUIRED), ("name", "vector")),
        lambda: dict(fn=_fn, domain=DOMAIN, name="X"), ("name", "Y"),
    ),
    "geometry.OneFormField": (
        geometry.OneFormField, (("fn", REQUIRED), ("domain", REQUIRED), ("name", "one-form")),
        lambda: dict(fn=_fn, domain=DOMAIN, name="eta"), ("name", "xi"),
    ),
    "geometry.MetricField": (
        geometry.MetricField, (("fn", REQUIRED), ("domain", REQUIRED), ("name", "metric")),
        lambda: dict(fn=_fn, domain=geometry.ChartDomain(2, ((0.0, 1.0), (0.0, 1.0)), "box"), name="g"),
        ("domain", geometry.ChartDomain(2, ((0.0, 1.0), (0.0, 3.0)))),
    ),
    "cli.Check": (
        cli.Check,
        (("name", REQUIRED), ("anchor", REQUIRED), ("tol", REQUIRED), ("order", REQUIRED),
         ("applies", None), ("measure", None), ("derived", True)),
        lambda: dict(name="row", anchor="eq. 1", tol=1e-8, order=2, applies=_fn, measure=None, derived=False),
        ("order", 3),
    ),
    "soliton.SolitonParams": (
        soliton.SolitonParams, (("alpha", REQUIRED), ("beta", REQUIRED), ("lam", REQUIRED), ("mu", 0.0)),
        lambda: dict(alpha=1.0, beta=0.5, lam=-1.0, mu=0.25), ("mu", 0.5),
    ),
    "soliton.SolitonInstance": (
        soliton.SolitonInstance,
        (("params", REQUIRED), ("metric", REQUIRED), ("kind", REQUIRED), ("potential", None),
         ("vector_field", None), ("eta", None), ("phi", None), ("compact", False), ("entry", None)),
        lambda: dict(params=soliton.SolitonParams(1.0, 0.5, -1.0), metric=METRIC, kind=soliton.SolitonKind.GRYS,
                     potential=geometry.ScalarField(_fn, DOMAIN), vector_field=None, eta=None, phi=None,
                     compact=False, entry=None),
        ("compact", True),
    ),
    "report.CheckRecord": (
        report.CheckRecord,
        (("name", REQUIRED), ("anchor", REQUIRED), ("point", REQUIRED), ("lhs", REQUIRED),
         ("rhs", REQUIRED), ("gap", REQUIRED), ("tol", REQUIRED), ("verdict", REQUIRED)),
        lambda: dict(name="c:row", anchor="eq. 1", point=[0.1, 0.2], lhs=1.0, rhs=1.0, gap=0.0,
                     tol=1e-8, verdict="pass"),
        ("gap", 1.0),
    ),
    "report.CheckReport": (
        report.CheckReport,
        (("command", REQUIRED), ("config", REQUIRED), ("records", FRESH_LIST), ("warnings", FRESH_LIST),
         ("version", report.VERSION)),
        lambda: dict(command="verify", config={"seed": 7}, records=[], warnings=["w"], version="0.1.0"),
        ("config", {"seed": 8}),
    ),
    "quadrature.QuadratureGrid": (
        quadrature.QuadratureGrid,
        (("chart_count", REQUIRED), ("weight", REQUIRED), ("partition", REQUIRED), ("columns", REQUIRED),
         ("metric", REQUIRED)),
        lambda: dict(chart_count=2, weight=(1.0, 2.0), partition=(0.5, 0.5), columns=((0.1, 0.2),), metric=METRIC),
        ("chart_count", 1),
    ),
    "quadrature.AmbientQuadratic": (
        quadrature.AmbientQuadratic, (("c", REQUIRED), ("lin", REQUIRED)),
        lambda: dict(c=((1.0, 0.0), (0.0, 1.0)), lin=(0.0, 1.0)), ("lin", (1.0, 0.0)),
    ),
    "quadrature.ManifoldScalarField": (
        quadrature.ManifoldScalarField, (("per_chart", REQUIRED), ("name", "field"), ("ambient", None)),
        lambda: dict(per_chart=(_fn, _fn), name="u", ambient=_fn), ("ambient", None),
    ),
    "curvature.Sym2Tensor": (
        curvature.Sym2Tensor, (("components", REQUIRED),),
        lambda: dict(components=((1.0, 0.0), (0.0, 1.0))), ("components", ((2.0, 0.0), (0.0, 1.0))),
    ),
    "solver.Background": (
        solver.Background, (("name", REQUIRED), ("ric_factor", REQUIRED), ("scalar", REQUIRED), ("radius", 1.0)),
        lambda: dict(name="sphere", ric_factor=2.0, scalar=6.0, radius=1.0), ("radius", 2.0),
    ),
    "solver.RadialProfile": (
        solver.RadialProfile,
        (("grid", REQUIRED), ("values", REQUIRED), ("params", REQUIRED), ("background", REQUIRED)),
        lambda: dict(grid=(0.1, 0.2), values=(0.0, 0.0), params=PARAMS, background=solver.Background.flat()),
        ("values", (0.0, 1.0)),
    ),
    "identities.IdentityResidual": (
        identities.IdentityResidual,
        (("name", REQUIRED), ("lhs", REQUIRED), ("rhs", REQUIRED), ("abs_gap", REQUIRED), ("rel_gap", REQUIRED),
         ("point", REQUIRED)),
        lambda: dict(name="id", lhs=1.0, rhs=1.0, abs_gap=0.0, rel_gap=0.0, point=geometry.ChartPoint((0.5, 0.5))),
        ("rhs", 2.0),
    ),
    "catalog.ClosedForms": (
        catalog.ClosedForms,
        (("einstein_factor", None), ("scalar", None), ("volume", None), ("ricci_fn", None)),
        lambda: dict(einstein_factor=2.0, scalar=6.0, volume=None, ricci_fn=_fn), ("volume", 1.0),
    ),
    "catalog.SphereAtlas": (
        catalog.SphereAtlas, (("radius", REQUIRED),),
        lambda: dict(radius=1.0), ("radius", 2.0),
    ),
    "catalog.CatalogEntry": (
        catalog.CatalogEntry,
        (("name", REQUIRED), ("metric", REQUIRED), ("charts", REQUIRED), ("compact", False),
         ("closed_forms", None), ("atlas", None), ("notes", "")),
        lambda: dict(name="e", metric=METRIC, charts=(DOMAIN,), compact=True,
                     closed_forms=catalog.ClosedForms(volume=1.0), atlas=catalog.SphereAtlas(1.0), notes="n"),
        ("notes", "m"),
    ),
    "catalog.CaseSpec": (
        catalog.CaseSpec,
        (("name", REQUIRED), ("entry", REQUIRED), ("defaults", REQUIRED), ("field", None), ("checks", ())),
        lambda: dict(name="case", entry=_fn, defaults=PARAMS, field=_fn, checks=("defining-residual",)),
        ("checks", ()),
    ),
}

# Records with a list or dict field, which therefore cannot be hashed.
UNHASHABLE = {"report.CheckRecord", "report.CheckReport"}
# Fields a record needs though they have defaults: a gradient instance's potential.
NEEDED = {"soliton.SolitonInstance": {"potential"}}
BY_IDENTITY = {"quadrature.AmbientQuadratic"}
# Records whose ``replace`` callers use.
REPLACEABLE = ("quadrature.QuadratureGrid", "catalog.CatalogEntry", "geometry.MetricField",
               "soliton.SolitonInstance", "cli.Check")


def test_every_former_dataclass_is_in_the_table():
    modules = (catalog, cli, curvature, geometry, identities, quadrature, report, soliton, solver)
    records = {
        f"{module.__name__.split('.')[-1]}.{value.__name__}"
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, Record) and value.__module__ == module.__name__
    }
    assert records == set(RECORDS)
    assert len(RECORDS) == 22


def _fields(name):
    return [field for field, _ in RECORDS[name][1]]


def _values(record, name):
    return [getattr(record, field) for field in _fields(name)]


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_constructor_takes_the_parent_parameters(name):
    cls, params, sample, _ = RECORDS[name]
    signature = inspect.signature(cls).parameters
    assert list(signature) == _fields(name)
    for field, default in params:
        if default is not FRESH_LIST:  # a fresh list is checked below
            assert signature[field].default == default

    values = sample()
    positional = cls(*values.values())
    by_name = cls(**values)
    assert _values(positional, name) == _values(by_name, name) == list(values.values())

    given = {field for field, default in params if default is REQUIRED} | NEEDED.get(name, set())
    required = {field: values[field] for field in given}
    bare = cls(**required)
    for field, default in params:
        if default is FRESH_LIST:
            assert getattr(bare, field) == [] and getattr(bare, field) is not getattr(cls(**required), field)
        elif field not in given:
            assert getattr(bare, field) == default


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_constructor_rejects_bad_arguments(name):
    cls, params, sample, _ = RECORDS[name]
    values = sample()
    with pytest.raises(TypeError):
        cls(*values.values(), "extra")
    with pytest.raises(TypeError):
        cls(**values, unknown=1)
    first = params[0][0]
    with pytest.raises(TypeError):
        cls(values[first], **values)
    required = [field for field, default in params if default is REQUIRED]
    if required:
        with pytest.raises(TypeError):
            cls(**{field: v for field, v in values.items() if field != required[-1]})


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_frozen_records_refuse_assignment_and_deletion(name):
    cls, _, sample, (field, other) = RECORDS[name]
    record = cls(**sample())
    before = _values(record, name)
    for target in (field, "new_attribute"):
        with pytest.raises(AttributeError):
            setattr(record, target, other)
        with pytest.raises(AttributeError):
            delattr(record, target)
    assert _values(record, name) == before


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_fields_give_equal_records(name):
    cls, _, sample, (field, other) = RECORDS[name]
    a, b = cls(**sample()), cls(**sample())
    changed = cls(**dict(sample(), **{field: other}))
    assert a == a and not a != a
    if name in BY_IDENTITY:
        assert a != b and hash(a) == hash(a) != hash(b)
        return
    assert a == b and not a != b
    assert a != changed and changed != a
    assert a.__eq__("not a record") is NotImplemented
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1


def test_the_catalog_back_reference_is_outside_equality_hash_and_repr():
    cls, _, sample, _ = RECORDS["soliton.SolitonInstance"]
    a = cls(**sample())
    b = cls(**dict(sample(), entry=catalog.flat_entry()))
    assert a == b and hash(a) == hash(b)
    assert "entry" not in repr(b) and "compact=False" in repr(b)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr_names_each_field(name):
    cls, params, sample, _ = RECORDS[name]
    values = sample()
    text = repr(cls(**values))
    assert text.startswith(cls.__qualname__ + "(")
    shown = [field for field, _ in params if (name, field) != ("soliton.SolitonInstance", "entry")]
    assert text == f"{cls.__qualname__}(" + ", ".join(f"{f}={values[f]!r}" for f in shown) + ")"


def test_report_summary_counts_added_records():
    rep = report.CheckReport("verify", {})
    rep.add(report.CheckRecord.build("c:row", "eq. 1", None, 1.0, 1.0, 0.0, 1e-8))
    assert rep.summary == {"pass": 1, "fail": 0, "total": 1}


@pytest.mark.parametrize("name", REPLACEABLE)
def test_replace_changes_one_field_and_keeps_the_original(name):
    cls, _, sample, (field, other) = RECORDS[name]
    record = cls(**sample())
    changed = record.replace(**{field: other})
    assert type(changed) is cls
    assert getattr(changed, field) == other
    assert getattr(record, field) == sample()[field]
    for f in _fields(name):
        if f != field:
            assert getattr(changed, f) is getattr(record, f)
    assert record.replace() == record
    with pytest.raises(TypeError):
        record.replace(unknown=1)


def test_replace_checks_the_new_record():
    inst = RECORDS["soliton.SolitonInstance"][0](**RECORDS["soliton.SolitonInstance"][2]())
    with pytest.raises(ValueError, match="needs a potential"):
        inst.replace(potential=None)


def test_grid_blocks_are_replaced_grids():
    grid = quadrature.build_grid(catalog.sphere_entry(1.0), 24)
    blocks = list(grid.blocks())
    assert len(blocks) > 1
    for s, block in blocks:
        assert type(block) is quadrature.QuadratureGrid
        assert block.metric is grid.metric and block.chart_count == grid.chart_count
        assert list(block.weight) == list(grid.weight[s])


def test_copies_and_pickles_are_equal_records():
    domain = geometry.ChartDomain(2, ((0.0, 1.0), (0.0, 2.0)), "box")
    for twin in (copy.copy(domain), copy.deepcopy(domain), pickle.loads(pickle.dumps(domain))):
        assert twin == domain and hash(twin) == hash(domain)
    rep = report.CheckReport("verify", {"seed": 7})
    assert copy.deepcopy(rep) == rep and copy.deepcopy(rep).records is not rep.records


def test_a_default_may_not_precede_a_field_without_one():
    with pytest.raises(TypeError, match="follows"):
        type("Bad", (Record,), {"__annotations__": {"a": "int", "b": "int"}, "a": 0})


def test_report_records_serialize_field_by_field():
    record = report.CheckRecord.build("c:row", "eq. 1", (0.25, 0.5), 1.0, 2.0, 1.0, 1e-8)
    payload = report.CheckReport("verify", {}, [record]).to_payload()["records"]
    assert payload == [{
        "name": "c:row", "anchor": "eq. 1", "point": [0.25, 0.5], "lhs": 1.0, "rhs": 2.0, "gap": 1.0,
        "tol": 1e-8, "verdict": "fail",
    }]
    assert payload[0]["point"] is not record.point


def test_setup_imports_no_dataclasses():
    """The benchmark's set-up in a fresh interpreter: import the CLI and build
    the catalog.  No module it loads imports ``dataclasses``."""
    probe = (
        "import sys; import ryslab.cli; from ryslab import catalog; catalog.catalog_entries(); "
        "print(sorted(m for m in ('dataclasses', 'copy') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


class CountedKey:
    """A memo key that counts its own hash calls (equal only to itself)."""

    def __init__(self):
        self.hashes = 0

    def __hash__(self):
        self.hashes += 1
        return 1


def test_point_batch_memo_hashes_a_key_once_per_lookup():
    batch = geometry.PointBatch.of((0.25, 0.5))
    key = CountedKey()
    assert batch.memo(key, lambda: None) is None
    assert key.hashes == 2  # looked up, then stored
    assert batch.memo(key, lambda: 1 / 0) is None
    assert key.hashes == 3


def test_shared_curvature_reads_hash_their_field_once_per_lookup():
    class Holder:
        _chunks = None

        def __init__(self):
            self._memo = {}

    read = curvature._shared(lambda self, field: [field])
    holder, key = Holder(), CountedKey()
    assert read(holder, key) == [key]
    assert key.hashes == 2
    assert read(holder, key) == [key]
    assert key.hashes == 3

    hashes = []

    class CountedField(geometry.ScalarField):
        def __hash__(self):
            hashes.append(1)
            return super().__hash__()

    g = catalog.flat_entry().metric
    f = CountedField(lambda x: x[0] * x[1], g.domain)
    data = curvature.curvature_data(g, geometry.PointBatch.of_points([(0.1, 0.2, 0.3), (0.2, 0.1, 0.3)]))
    data.jet(f)
    assert len(hashes) == 4  # the jet's key and the lift's, each looked up and stored
    data.jet(f)
    assert len(hashes) == 5


def test_a_record_keeps_its_hash():
    """The first ``hash`` of a record hashes its fields; a second calls no
    field's ``__hash__``, and neither does a memo lookup that follows."""
    hashes = []

    class CountedDomain(geometry.ChartDomain):
        def __hash__(self):
            hashes.append(1)
            return super().__hash__()

    domain = CountedDomain(2, ((0.0, 1.0), (0.0, 1.0)), "box")
    inst = soliton.SolitonInstance(PARAMS, geometry.MetricField(_fn, domain), soliton.SolitonKind.GRYS,
                                   potential=geometry.ScalarField(_fn, domain))
    first = hash(inst)
    assert len(hashes) == 2  # the metric's domain and the potential's
    assert hash(inst) == first and len(hashes) == 2
    memo = {inst: 1}
    assert memo[inst] == 1 and len(hashes) == 2
