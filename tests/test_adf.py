"""Core instance type: projection, evaluation, generators, serialization."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from graybox import adf, climb
from graybox.adf import (
    ADJACENT_ACYCLIC,
    ADJACENT_CYCLIC,
    CODOMAIN_FOUR_OPTIMA,
    RANDOM_SCOPES,
    SEPARABLE,
    AdfInstance,
    GeneratorSpec,
    Subfunction,
    Visibility,
    bits_from_string,
    generate,
    paper_example,
    parse,
    project,
    serialize,
    serialize_json,
)
from graybox.errors import ConfigError, ParseError, StructuralError


def python312_sum(values, start=0):
    """The builtin sum() of Python 3.12 and later over floats: Neumaier's
    compensated summation, which can differ from adding left to right."""
    total, c = float(start), 0.0
    for x in values:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


def make_instance(n, scopes, codomains, **kw):
    subs = tuple(Subfunction(tuple(s), tuple(float(v) for v in c)) for s, c in zip(scopes, codomains))
    return AdfInstance(n=n, subfunctions=subs, **kw)


class TestProject:
    def test_all_ones(self):
        assert project([1] * 10, [1, 2, 3]) == 7

    def test_all_zeros(self):
        assert project([0] * 10, [9, 0, 1]) == 0

    def test_first_variable_most_significant(self):
        bits = [1, 0, 1, 0, 0, 0, 0, 0, 0, 0]
        assert project(bits, [0, 1, 2]) == 5

    def test_scope_order_matters(self):
        bits = [1, 0, 0]
        assert project(bits, [0, 1]) == 2
        assert project(bits, [1, 0]) == 1

    def test_out_of_range(self):
        with pytest.raises(StructuralError):
            project([0, 1], [2])


class TestEvaluate:
    def test_paper_all_ones(self):
        assert paper_example().evaluate([1] * 10) == 10.0

    def test_paper_all_zeros(self):
        assert paper_example().evaluate([0] * 10) == 5.0

    def test_single_subfunction(self):
        inst = make_instance(1, [(0,)], [(0.0, 1.0)])
        assert inst.evaluate([1]) == 1.0
        assert inst.evaluate([0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(StructuralError, match=r"^solution has 9 bits, expected 10$"):
            paper_example().evaluate([1] * 9)

    def test_batch_matches_scalar(self):
        inst = paper_example()
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=(64, 10))
        batch = inst.evaluate_batch(bits)
        for row, fit in zip(bits, batch):
            assert inst.evaluate(list(row)) == fit

    def test_sums_do_not_depend_on_the_python_version(self, monkeypatch):
        # evaluate and a climb's start fitness add left to right from 0.0, as
        # evaluate_batch does, even where sum() compensates
        monkeypatch.setattr(adf, "sum", python312_sum, raising=False)
        monkeypatch.setattr(climb, "sum", python312_sum, raising=False)
        pinned = Path(__file__).parent / "data" / "pinned" / "random.adf"
        inst = parse(pinned.read_text())
        bits = np.random.default_rng(0).integers(0, 2, size=(200, inst.n))
        for row, fitness in zip(bits.tolist(), inst.evaluate_batch(bits)):
            assert inst.evaluate(row) == fitness
            assert climb.DeltaState(inst, row).fitness == fitness

    def test_linearity(self):
        # summing codomains entrywise sums the evaluations, for any solution
        rng = np.random.default_rng(1)
        scopes = [tuple(sorted(rng.choice(8, size=3, replace=False))) for _ in range(6)]
        c1 = [rng.random(8) for _ in scopes]
        c2 = [rng.random(8) for _ in scopes]
        a = make_instance(8, scopes, c1)
        b = make_instance(8, scopes, c2)
        both = make_instance(8, scopes, [x + y for x, y in zip(c1, c2)])
        for _ in range(50):
            sol = list(rng.integers(0, 2, size=8))
            assert both.evaluate(sol) == pytest.approx(a.evaluate(sol) + b.evaluate(sol))

    def test_paper_global_optimum_brute_force(self):
        inst = paper_example()
        best, argmax = -1.0, []
        for s in range(1 << 10):
            sol = [(s >> (9 - j)) & 1 for j in range(10)]
            f = inst.evaluate(sol)
            if f > best:
                best, argmax = f, [tuple(sol)]
            elif f == best:
                argmax.append(tuple(sol))
        assert best == 10.0
        assert argmax == [(1,) * 10]


class TestTypes:
    def test_duplicate_scope_index(self):
        with pytest.raises(StructuralError):
            Subfunction((1, 1), (0.0, 0.0, 0.0, 0.0))

    def test_codomain_size(self):
        with pytest.raises(StructuralError):
            Subfunction((0, 1, 2), (0.0,) * 7)

    def test_scope_out_of_range(self):
        with pytest.raises(StructuralError) as exc:
            make_instance(3, [(0, 3)], [(0, 0, 0, 0)])
        assert str(exc.value) == "subfunction 0: scope index 3 out of range for n=3"

    def test_non_finite_codomain(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(StructuralError, match="finite"):
                Subfunction((0,), (0.0, bad))

    def test_k_max(self):
        inst = make_instance(4, [(0,), (1, 2, 3)], [(0, 1), (0,) * 8])
        assert max(sub.k for sub in inst.subfunctions) == 3
        assert inst.m == 2


class TestGenerate:
    def test_paper_example_shape(self):
        inst = paper_example()
        assert inst.n == 10 and inst.m == 10
        assert max(sub.k for sub in inst.subfunctions) == 3
        assert inst.subfunctions[0].codomain == (1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0)
        # each subfunction: value 1 at four configurations, one of them 111
        for sub in inst.subfunctions:
            assert sum(sub.codomain) == 4.0
            assert sub.codomain[7] == 1.0

    def test_separable_scopes(self):
        inst = generate(GeneratorSpec(SEPARABLE, n=6, k=3, seed=1))
        assert [s.scope for s in inst.subfunctions] == [(0, 1, 2), (3, 4, 5)]

    def test_adjacent_cyclic_layout_and_determinism(self):
        spec = GeneratorSpec(ADJACENT_CYCLIC, n=10, k=3, seed=7)
        a, b = generate(spec), generate(spec)
        assert a == b
        assert [s.scope for s in a.subfunctions] == [
            tuple((i + d) % 10 for d in range(3)) for i in range(10)
        ]

    def test_adjacent_acyclic(self):
        inst = generate(GeneratorSpec(ADJACENT_ACYCLIC, n=6, k=3, seed=0))
        assert [s.scope for s in inst.subfunctions] == [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5)]

    def test_random_scopes(self):
        spec = GeneratorSpec(RANDOM_SCOPES, n=12, k=3, m=8, seed=3)
        inst = generate(spec)
        assert inst.m == 8
        for sub in inst.subfunctions:
            assert len(set(sub.scope)) == 3
            assert all(0 <= v < 12 for v in sub.scope)
        assert generate(spec) == inst

    def test_four_optima_codomain(self):
        inst = generate(
            GeneratorSpec(ADJACENT_CYCLIC, n=8, k=3, codomain=CODOMAIN_FOUR_OPTIMA, seed=5)
        )
        for sub in inst.subfunctions:
            assert sorted(set(sub.codomain)) == [0.0, 1.0]
            assert sum(sub.codomain) == 4.0
            assert sub.codomain[-1] == 1.0  # all-ones always a local optimum
        assert inst.evaluate([1] * 8) == 8.0

    def test_codomain_seed_decouples_tables(self):
        base = GeneratorSpec(RANDOM_SCOPES, n=10, k=3, m=5, seed=1, codomain_seed=99)
        other = GeneratorSpec(RANDOM_SCOPES, n=10, k=3, m=5, seed=1, codomain_seed=100)
        a, b = generate(base), generate(other)
        assert [s.scope for s in a.subfunctions] == [s.scope for s in b.subfunctions]
        assert a != b

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind=SEPARABLE, n=10, k=3),
            dict(kind=ADJACENT_CYCLIC, n=10, k=3, m=9),
            dict(kind=ADJACENT_ACYCLIC, n=10, k=3, m=10),
            dict(kind=ADJACENT_CYCLIC, n=4, k=1, codomain=CODOMAIN_FOUR_OPTIMA),
            dict(kind=ADJACENT_CYCLIC, n=2, k=5),
            dict(kind="no-such-kind", n=4, k=2),
            dict(kind="paper-example"),  # built by paper_example() alone
            dict(kind=SEPARABLE, n=12, k=3, m=5),
            dict(kind=RANDOM_SCOPES, n=12, k=3, m=0),
        ],
    )
    def test_inconsistent_specs(self, kwargs):
        with pytest.raises(ConfigError):
            GeneratorSpec(**kwargs)

    @pytest.mark.parametrize("kind, m", [
        (ADJACENT_CYCLIC, 12), (ADJACENT_ACYCLIC, 10), (SEPARABLE, 4),
    ])
    def test_fixed_layout_accepts_its_own_m(self, kind, m):
        assert generate(GeneratorSpec(kind, n=12, k=3, m=m)).m == m


class TestSerialization:
    @pytest.mark.parametrize("codomain", ["uniform", "four-optima"])
    def test_text_round_trip(self, codomain):
        inst = generate(GeneratorSpec(RANDOM_SCOPES, n=9, k=3, m=6, seed=2, codomain=codomain))
        assert parse(serialize(inst)) == inst

    def test_paper_round_trip(self):
        inst = paper_example()
        assert parse(serialize(inst)) == inst
        assert parse(serialize_json(inst)) == inst

    def test_wgb_round_trip(self):
        inst = make_instance(
            3, [(0, 1, 2)], [range(8)], wgb=(Visibility.GRAY, Visibility.BLACK), name="shadowed"
        )
        back = parse(serialize(inst))
        assert back.wgb == (Visibility.GRAY, Visibility.BLACK)
        assert back.name == "shadowed"

    @pytest.mark.parametrize("name", ["a\nb", " x ", '"quoted"', "tab\tin\u2028side"])
    def test_unsafe_name_round_trips_quoted(self, name):
        text = serialize(make_instance(1, [(0,)], [(0, 1)], name=name))
        assert text.splitlines()[0] == f"# name: {json.dumps(name)}"
        assert parse(text).name == name

    def test_plain_name_written_as_is(self):
        text = serialize(make_instance(1, [(0,)], [(0, 1)], name="café #1: x\\y"))
        assert text.splitlines()[0] == "# name: café #1: x\\y"

    @pytest.mark.parametrize("raw", ['"open', '"foo" bar'])
    def test_malformed_quoted_name_kept_raw(self, raw):
        inst = parse(f"# name: {raw}\nadf 1 1\nsub 1 0 0 1\n")
        assert inst.name == raw
        assert parse(serialize(inst)).name == raw

    def test_projection_stable_across_round_trip(self):
        inst = paper_example()
        back = parse(serialize(inst))
        rng = np.random.default_rng(4)
        for _ in range(30):
            sol = list(rng.integers(0, 2, size=10))
            for a, b in zip(inst.subfunctions, back.subfunctions):
                assert project(sol, a.scope) == project(sol, b.scope)

    def test_scope_index_out_of_range(self):
        with pytest.raises(ParseError) as exc:
            parse("adf 3 1\nsub 2 0 3 1 2 3 4\n")
        assert str(exc.value) == "subfunction 0: scope index 3 out of range for n=3"

    # Both readers give each scope refusal the same words, prefixed by where it is.
    @pytest.mark.parametrize("text, message", [
        ("adf 3 2\nsub 1 0 0 1\nsub 2 0 -1 1 2 3 4\n",
         "subfunction 1: scope index -1 out of range for n=3"),
        ('{"n": 3, "subfunctions": [{"scope": [0, 3], "codomain": [1, 2, 3, 4]}]}',
         "subfunction 0: scope index 3 out of range for n=3"),
        ("adf 3 1\nsub 2 0 0 1 2 3 4\n", "line 2: duplicate variable in scope (0, 0)"),
        ('{"n": 3, "subfunctions": [{"scope": [1, 1], "codomain": [1, 2, 3, 4]}]}',
         "subfunction 0: duplicate variable in scope (1, 1)"),
        ('{"n": 3, "subfunctions": [{"scope": [], "codomain": [1]}]}',
         "subfunction 0: scope must contain at least one variable"),
        ('{"n": 0, "subfunctions": []}', "instance needs at least one variable"),
        ('{"n": 2, "subfunctions": []}', "instance needs at least one subfunction"),
    ], ids=["text-range-negative", "json-range", "text-repeat", "json-repeat",
            "json-empty", "json-no-variable", "json-no-subfunction"])
    def test_scope_refusal_text(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == message

    def test_wrong_codomain_count(self):
        with pytest.raises(ParseError, match="values"):
            parse("adf 3 1\nsub 3 0 1 2 1 2 3 4 5 6 7\n")

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse("sub 1 0 0 1\n")

    def test_declared_count_mismatch(self):
        with pytest.raises(ParseError, match="declares"):
            parse("adf 2 2\nsub 1 0 0 1\n")

    def test_unknown_directive(self):
        with pytest.raises(ParseError, match="line 2"):
            parse("adf 2 1\nbogus stuff\n")

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            parse('{"n": 2, "subfunctions": [{"scope": [0, 5], "codomain": [1, 2, 3, 4]}]}')

    @pytest.mark.parametrize(
        "text",
        [
            "adf 2 1\nsub 2 0 1 nan 1 inf 0\n",
            '{"n": 2, "subfunctions": [{"scope": [0, 1], "codomain": [NaN, 1, Infinity, 0]}]}',
        ],
        ids=["text", "json"],
    )
    def test_non_finite_values_rejected(self, text):
        with pytest.raises(ParseError, match="finite"):
            parse(text)

    def test_bits_from_string(self):
        assert bits_from_string("0101") == (0, 1, 0, 1)
        with pytest.raises(ParseError):
            bits_from_string("01x1")
