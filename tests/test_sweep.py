"""A long sweep of a catalog surface gives what calls on it give, bitwise.

A surface's coordinates are ``mix(*xpart(x), *ypart(y))``; a call
(``eval_surface``) keeps nothing.  A grid sweep (``surfaces._sweep``)
walks the grid's two axes: it computes the x part of each x once before
the first point and the y part of each y once at the start of its row,
then runs ``mix`` alone at each point.  Each point of a long sweep must
give the jet (compared by ``repr``, so that -0.0 and every last bit
count) or the error of ``mix``, with its message, that a call gives
there (``helpers.swept``); a part's error propagates.  An ``apply_map``
image is the source with the map after ``mix``, so it sweeps its
source's parts the same way.  A surface with no parts is a plain
``mix(x, y)``, which runs at every point.
"""

from collections import Counter

import pytest

from helpers import called, called_rows, outcome, surface_names, swept
from titeica import jet, surfaces
from titeica.centroaffine import CentroAffineMap, apply_map, verify_scaling
from titeica.errors import DomainError, SingularPointError
from titeica.invariants import PointRecord, classify, identity_residual, point_invariants, scan_grid
from titeica.surfaces import (
    EUCLIDEAN,
    Box,
    SurfaceDef,
    catalog,
    eval_surface,
    grid_points,
)


GENERAL = CentroAffineMap.of([(1.3, 0.2, -0.4), (0.1, 0.9, 0.3), (-0.2, 0.5, 1.1)])


def assert_sweep_matches_calls(s, xs, ys):
    assert swept(s, xs, ys) == called(s, xs, ys)


@pytest.mark.parametrize("name", surface_names())
def test_catalog_sweep_matches_calls(name):
    s = catalog(name)
    xs, ys = surfaces._grid_axes(s.domain, 37, 23)
    for surface in (s, apply_map(s, GENERAL)):
        assert_sweep_matches_calls(surface, xs, ys)


@pytest.mark.parametrize("name", surface_names())
def test_scan_grid_rows_match_calls(name):
    s = catalog(name)
    assert repr(scan_grid(s, (37, 23))) == repr(called_rows(s, (37, 23)))


@pytest.mark.parametrize("name", ["paraboloid", "sphere-origin", "plane"])
def test_signed_zeros_are_different_lines(name):
    s = catalog(name)
    axis = [0.0, -0.0, 0.25, -0.0]
    for surface in (s, apply_map(s, GENERAL)):
        assert_sweep_matches_calls(surface, axis, axis[::-1])
    assert repr(eval_surface(s, -0.0, 0.25)[0].val) == "-0.0"


def raising_surface():
    """A surface whose x part, y part and mix each raise on part of a grid:
    log x for x <= 0, sqrt y for y <= 0, and in mix sqrt(log x + sqrt y)
    where log x + sqrt y <= 0 and 1/(x - y) where x = y."""
    return SurfaceDef(
        "raising",
        lambda x, lx, y, ry: (x, y, jet.sqrt(lx + ry) / (x - y)),
        Box(-5.0, 5.0, -5.0, 5.0),
        EUCLIDEAN,
        lambda x: (x, jet.log(x)),
        lambda y: (y, jet.sqrt(y)),
    )


def test_sweep_of_a_raising_row_matches_calls():
    xs, ys = [0.25, 0.5, 1.0, 2.0], [0.25, 0.5, 1.0, 2.0, 4.0]
    s = raising_surface()
    outcomes = called(s, xs, ys)
    errors = {o[1].partition(":")[0] for o in outcomes if isinstance(o, tuple)}
    assert errors == {"sqrt", "division by a jet with value 0"}
    assert any(isinstance(o, str) for o in outcomes)
    assert_sweep_matches_calls(s, xs, ys)
    assert_sweep_matches_calls(apply_map(s, GENERAL), xs, ys)


@pytest.mark.parametrize("xs, ys, bad", [
    ([1.0, -1.0], [1.0], (-1.0, 1.0)),  # an x part: before the first point
    ([1.0, 3.0], [2.0, -0.0, 1.0], (1.0, -0.0)),  # a y part: after its earlier rows
], ids=["x_part", "y_part"])
def test_a_raising_part_propagates_its_error(xs, ys, bad):
    s = raising_surface()
    seen = []
    with pytest.raises(DomainError) as err:
        surfaces._sweep(s, xs, ys, lambda x, y, jets: seen.append((x, y)), PointRecord)
    assert ("DomainError", str(err.value)) == outcome(s, *bad)
    assert seen == [(x, y) for y in ys[:ys.index(bad[1])] for x in xs]
    with pytest.raises(DomainError):
        scan_grid(s, (3, 3))  # the grid's middle x is 0.0


def test_a_mapped_row_runs_its_parts_as_the_row_does():
    # Each one-axis part runs once per axis value, nx + ny calls a grid,
    # whether the surface is swept itself, as the source of an apply_map image
    # (whose parts hand on the seeds a graph's image needs) or on both sides
    # of verify_scaling, for three jets and for a graph's height alike.
    runs = Counter()

    def xpart(x):
        runs["x", x.val] += 1
        return x, x * x

    def ypart(y):
        runs["y", y.val] += 1
        return y, y * y

    for mix in (lambda x, xx, y, yy: (x, y, xx + yy), lambda x, xx, y, yy: xx + yy):
        s = SurfaceDef("counted", mix, Box(0.5, 2.0, 0.5, 2.0), EUCLIDEAN, xpart, ypart)
        seen = []
        for sweep in (lambda: scan_grid(s, (5, 4)), lambda: scan_grid(apply_map(s, GENERAL), (5, 4)),
                      lambda: verify_scaling(s, GENERAL, (5, 4), 1e-8)):
            runs.clear()
            sweep()
            seen.append(dict(runs))
        assert seen[0] == seen[1] == seen[2]
        xs, ys = surfaces._grid_axes(s.domain, 5, 4)
        assert seen[0] == {**{("x", x): 1 for x in xs}, **{("y", y): 1 for y in ys}}


def test_a_plain_mix_is_called_at_every_point():
    def reads_a_field(x, y):
        return x, y, x * y + jet.Jet2(x.val * x.val)

    def compares_jets(x, y):
        return x, y, x * x if x == y else x * y

    def tests_a_jet(x, y):
        return x, y, (x or y) * y

    for coords in (reads_a_field, compares_jets, tests_a_jet):
        s = SurfaceDef("custom", coords, Box(0.5, 2.0, 0.5, 2.0), EUCLIDEAN)
        xs, ys = surfaces._grid_axes(s.domain, 5, 4)
        xs, ys = xs + [1.0], ys + [1.0]
        assert_sweep_matches_calls(s, xs, ys)
        assert called(s, xs, ys) == [repr(coords(*jet.seed_xy(x, y))) for y in ys for x in xs]
        assert repr(scan_grid(s, (5, 4))) == repr(called_rows(s, (5, 4)))

    seen = []
    counted = SurfaceDef("counted", lambda x, y: seen.append((x.val, y.val)) or reads_a_field(x, y),
                         Box(0.5, 2.0, 0.5, 2.0), EUCLIDEAN)
    scan_grid(counted, (5, 4))
    assert seen == grid_points(Box(0.5, 2.0, 0.5, 2.0), 5, 4)


@pytest.mark.parametrize("count", [2, 4])
def test_a_plain_mix_must_give_three_jets(count):
    s = SurfaceDef("short", lambda x, y: (x, y, x * y, y)[:count], Box(0.5, 2.0, 0.5, 2.0), EUCLIDEAN)
    a = CentroAffineMap.of([(2.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)])
    for run in (lambda: eval_surface(s, 1.0, 1.0), lambda: scan_grid(s, (2, 2)),
                lambda: verify_scaling(s, a, (2, 2), 1e-8)):
        with pytest.raises(ValueError, match="values to unpack"):
            run()


def test_a_plain_mix_must_give_jets():
    # A real coordinate unpacks as one of three items, so a call tests the
    # type of each, and the pass refuses what it cannot unpack as a jet.
    # A mix that returns an iterator is named by what it held: eval_surface
    # and the sweep read it into a tuple where they call mix, and act and the
    # pointwise functions where they are called.
    s = SurfaceDef("p", lambda x, y: (x, y, 1.0), Box(-1.0, 1.0, -1.0, 1.0), EUCLIDEAN)
    lazy = s._replace(mix=lambda x, y: iter((x, y, 1.0)))
    a = CentroAffineMap.of([(2.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)])
    image, lazy_image = apply_map(s, a), apply_map(lazy, a)
    mixed = s.mix(*jet.seed_xy(0.5, 0.5))
    for run in (lambda: eval_surface(s, 0.5, 0.5), lambda: point_invariants(mixed, EUCLIDEAN),
                lambda: scan_grid(s, (2, 2)), lambda: verify_scaling(s, a, (2, 2), 1e-8),
                lambda: eval_surface(image, 0.5, 0.5), lambda: scan_grid(image, (2, 2)),
                lambda: eval_surface(lazy, 0.5, 0.5), lambda: scan_grid(lazy, (2, 2)), lambda: classify(lazy, (2, 2)),
                lambda: verify_scaling(lazy, a, (2, 2), 1e-8), lambda: scan_grid(lazy_image, (2, 2)),
                lambda: point_invariants(iter(mixed), EUCLIDEAN), lambda: identity_residual(iter(mixed), EUCLIDEAN),
                lambda: a.act(iter(mixed))):
        with pytest.raises(ValueError, match=r"^mix must give three jets, or one for a graph, got \(Jet2, Jet2, float\)$"):
            run()


@pytest.mark.parametrize("value", [1.0, None], ids=["float", "None"])
def test_a_mix_of_one_value_must_give_a_jet(value):
    # One jet is a graph's height; one value of any other type is refused on
    # every route, with the message that names both forms.
    s = SurfaceDef("p", lambda x, y: value, Box(-1.0, 1.0, -1.0, 1.0), EUCLIDEAN)
    a = CentroAffineMap.of([(2.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)])
    image = apply_map(s, a)
    for run in (lambda: eval_surface(s, 0.5, 0.5), lambda: scan_grid(s, (2, 2)),
                lambda: verify_scaling(s, a, (2, 2), 1e-8), lambda: eval_surface(image, 0.5, 0.5),
                lambda: scan_grid(image, (2, 2))):
        with pytest.raises(ValueError, match=rf"^mix must give three jets, or one for a graph, got {type(value).__name__}$"):
            run()


@pytest.mark.parametrize("count", [2, 4])
def test_a_row_unpacks_three_jets_at_a_call_and_in_a_sweep(count):
    # The sweep hands on what mix returns, so the pass and the map's image
    # must refuse 2 or 4 coordinate jets, as a call does.
    s = SurfaceDef("short", lambda x, xx, y: (x, y, xx, y)[:count], Box(0.5, 2.0, 0.5, 2.0), EUCLIDEAN,
                   lambda x: (x, x * x))
    a = CentroAffineMap.of([(2.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)])
    for run in (lambda: eval_surface(s, 1.0, 1.0), lambda: scan_grid(s, (2, 2)),
                lambda: verify_scaling(s, a, (2, 2), 1e-8), lambda: scan_grid(apply_map(s, a), (2, 2))):
        with pytest.raises(ValueError, match="values to unpack"):
            run()


@pytest.mark.parametrize("name", ["paraboloid", "pseudosphere"])
def test_a_mix_may_return_an_iterator(name):
    # The sweep reads an iterator of three jets into a tuple where it calls
    # mix, so verify_scaling, which reads a point's jets twice, reads it as
    # it reads a tuple.  A graph's height u is read as (x, y, u).
    s = catalog(name)
    xpart, ypart, mix = s.xpart, s.ypart, s.mix

    def three(x, y):
        f = mix(*xpart(x), *ypart(y))
        return iter((x, y, f) if type(f) is jet.Jet2 else f)

    lazy = s._replace(mix=three, xpart=None, ypart=None)
    assert repr(verify_scaling(lazy, GENERAL, (7, 5), 1e-8)) == repr(verify_scaling(s, GENERAL, (7, 5), 1e-8))
    assert repr(scan_grid(lazy, (7, 5))) == repr(scan_grid(s, (7, 5)))


class _Counted(list):
    """Three jets in a list that counts how often it is iterated."""

    reads = 0

    def __iter__(self):
        _Counted.reads += 1
        return super().__iter__()


@pytest.mark.parametrize("form", [lambda f: (c for c in f), list, _Counted], ids=["generator", "list", "counted"])
@pytest.mark.parametrize("name", ["paraboloid", "pseudosphere"])
def test_a_mix_result_is_read_once_where_mix_is_called(name, form, monkeypatch):
    # A mix may return any iterable of three jets: each grid command and a
    # mapped scan give the rows the tuple form gives, and each point's
    # result is iterated once, by the sweep or by the map's act.  So do
    # act and the pointwise functions, called on such an iterable.
    s = catalog(name)
    xpart, ypart, mix = s.xpart, s.ypart, s.mix

    def three(x, y):
        f = mix(*xpart(x), *ypart(y))
        return (x, y, f) if type(f) is jet.Jet2 else f

    calls = []
    plain = s._replace(mix=three, xpart=None, ypart=None)
    lazy = plain._replace(mix=lambda x, y: calls.append(x) or form(three(x, y)))
    monkeypatch.setattr(_Counted, "reads", 0)
    for run in (lambda t: scan_grid(t, (7, 5)), lambda t: classify(t, (7, 5)),
                lambda t: verify_scaling(t, GENERAL, (7, 5), 1e-8), lambda t: scan_grid(apply_map(t, GENERAL), (7, 5))):
        assert repr(run(lazy)) == repr(run(plain))
    assert len(calls) == 4 * 35
    assert _Counted.reads == (len(calls) if form is _Counted else 0)
    monkeypatch.setattr(_Counted, "reads", 0)
    points = grid_points(s.domain, 7, 5)
    for f in (lambda j: point_invariants(j, s.ambient), lambda j: identity_residual(j, s.ambient), GENERAL.act):
        for x, y in points:
            jets = three(*jet.seed_xy(x, y))
            assert _pointwise(f, form(jets)) == _pointwise(f, jets), (x, y)
    assert _Counted.reads == (3 * len(points) if form is _Counted else 0)


def _pointwise(f, jets):
    """``repr`` of ``f(jets)``, or the message of its SingularPointError."""
    try:
        return repr(f(jets))
    except SingularPointError as exc:
        return str(exc)


def test_plain_rows_are_not_jets():
    # Three plain 6-tuples hold a point's fields but are not jets: every
    # route that reads a caller's three jets refuses them alike.
    rows = tuple(map(tuple, eval_surface(catalog("pseudosphere"), 1.0, 1.0)))
    s = SurfaceDef("rows", lambda x, y: rows, Box(-1.0, 1.0, -1.0, 1.0), EUCLIDEAN)
    for run in (lambda: eval_surface(s, 0.5, 0.5), lambda: point_invariants(rows, EUCLIDEAN),
                lambda: identity_residual(rows, EUCLIDEAN), lambda: GENERAL.act(rows)):
        with pytest.raises(ValueError, match=r"^mix must give three jets, or one for a graph, got \(tuple, tuple, tuple\)$"):
            run()
