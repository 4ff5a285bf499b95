import math

import pytest

from dpsynth import marginal_family, parse_distribution_spec, parse_query_spec


class TestMarginalFamily:
    def test_monotone_order_and_size(self):
        family = marginal_family(3, 2, "monotone")
        assert [f.label() for f in family] == [
            "1", "x1", "x2", "x3", "x1*x2", "x1*x3", "x2*x3"
        ]

    def test_assignment_family(self):
        family = marginal_family(2, 1, "assignment")
        assert [f.label() for f in family] == [
            "1", "ind(x1=0)", "ind(x1=1)", "ind(x2=0)", "ind(x2=1)"
        ]

    def test_order_zero_is_just_the_constant(self):
        family = marginal_family(5, 0)
        assert len(family) == 1
        assert family[0].is_constant_one

    def test_size_matches_binomial_sums(self):
        for p in range(1, 13):
            for d in range(p + 1):
                expected = sum(math.comb(p, j) for j in range(d + 1))
                assert len(marginal_family(p, d)) == expected

    def test_size_spot_check_larger_p(self):
        # 1 + 20 + 190 + 1140 subsets of size at most 3
        assert len(marginal_family(20, 3)) == 1351

    def test_assignment_size(self):
        # 1 + sum_j C(p,j) 2^j for p=4, d=2: 1 + 8 + 24
        assert len(marginal_family(4, 2, "assignment")) == 33

    def test_validation(self):
        with pytest.raises(ValueError, match="p must be >= 1"):
            marginal_family(0, 0)
        with pytest.raises(ValueError, match="0 <= d <= p"):
            marginal_family(3, 4)
        with pytest.raises(ValueError, match="0 <= d <= p"):
            marginal_family(3, -1)
        with pytest.raises(ValueError, match="kind must be"):
            marginal_family(3, 1, "parity")


class TestParseQuerySpec:
    def test_marginals_directive(self):
        family = parse_query_spec("marginals monotone d=1", (2, 2, 2))
        assert [f.label() for f in family] == ["1", "x1", "x2", "x3"]

    def test_indicator_directive_uses_one_based_coordinates(self):
        family = parse_query_spec("indicator S=2 values=1", (2, 2, 2))
        assert [f.label() for f in family] == ["1", "ind(x2=1)"]

    def test_comments_and_blank_lines(self):
        text = "\n# header comment\nmarginals monotone d=1  # trailing\n\n"
        family = parse_query_spec(text, (2, 2))
        assert len(family) == 3

    def test_repeated_directives_share_one_constant(self):
        text = "marginals monotone d=1\nmarginals assignment d=1\n"
        family = parse_query_spec(text, (2, 2, 2))
        assert sum(1 for f in family if f.is_constant_one) == 1
        assert len(family) == 1 + 3 + 6

    def test_auto_constant(self):
        family = parse_query_spec("indicator S=1 values=0", (3, 2))
        assert family[0].is_constant_one
        assert [f.label() for f in family] == ["1", "ind(x1=0)"]

    def test_empty_spec(self):
        family = parse_query_spec("# nothing\n", (2, 2))
        assert len(family) == 1
        assert family[0].is_constant_one

    def test_indicator_on_non_boolean_schema(self):
        family = parse_query_spec("indicator S=1,2 values=2,0", (3, 4))
        assert family[1].label() == "ind(x1=2,x2=0)"

    def test_error_messages_carry_line_numbers(self):
        with pytest.raises(ValueError, match="line 2: unknown directive 'margnals'"):
            parse_query_spec("# ok\nmargnals monotone d=1", (2, 2))
        with pytest.raises(ValueError, match="line 1: expected 'marginals"):
            parse_query_spec("marginals monotone", (2, 2))
        with pytest.raises(ValueError, match="^line 1: expected 'marginals <kind> d=<int>'$"):
            parse_query_spec("marginals monotone d=1,2", (2, 2))
        with pytest.raises(ValueError, match="line 1: kind must be"):
            parse_query_spec("marginals parity d=1", (2, 2))
        with pytest.raises(ValueError, match="line 1: d must be"):
            parse_query_spec("marginals monotone d=x", (2, 2))
        with pytest.raises(ValueError, match="line 1: marginals need a Boolean schema"):
            parse_query_spec("marginals monotone d=1", (2, 3))
        with pytest.raises(ValueError, match="line 3: coordinates must lie in 1..2"):
            parse_query_spec("# a\n# b\nindicator S=3 values=0", (2, 2))
        with pytest.raises(
            ValueError, match="line 1: schema mismatch: value 7 out of range for coordinate 2"
        ):
            parse_query_spec("indicator S=2 values=7", (2, 3))
        with pytest.raises(ValueError, match="line 1: need one assigned value per coordinate"):
            parse_query_spec("indicator S=1,2 values=0", (2, 2))
        with pytest.raises(ValueError, match="line 1: coordinate indices must be distinct"):
            parse_query_spec("indicator S=1,1 values=0,0", (2, 2))

    @pytest.mark.parametrize(
        "text", ["indicator S=+1 values=0", "indicator S=1 values=0_0", "indicator S=١ values=0",
                 "indicator S=1 values=-0", "marginals monotone d=+1", "marginals monotone d=1.0"]
    )
    def test_integers_follow_the_dataset_cell_grammar(self, text):
        # A sign, an underscore, a non-ASCII digit or a fraction is not a cell.
        with pytest.raises(ValueError, match="^line 1: (S|values|d) must be comma-separated integers$"):
            parse_query_spec(text, (2, 2))

    @pytest.mark.parametrize(
        "parse, gap, rest, message",
        [
            (parse_query_spec, "\u3000", "indicator S=1{}values=0", "expected 'indicator S="),
            (parse_query_spec, "\x1f", "marginals{}monotone d=1", "unknown directive"),
            (parse_distribution_spec, "\xa0", "explicit{}2\n0;1", "unknown distribution kind"),
            (parse_query_spec, "\u3000", "{}\nmarginals monotone d=1", "unknown directive"),
        ],
        ids=["ideographic-space", "unit-separator", "no-break-space", "whitespace-only-line"],
    )
    def test_spec_words_split_on_spaces_and_tabs_only(self, parse, gap, rest, message):
        def run(separator):
            text = rest.format(separator)
            return parse(text, (2, 2)) if parse is parse_query_spec else parse(text)

        with pytest.raises(ValueError, match=f"^line 1: {message}"):
            run(gap)
        assert run(" \t ") is not None

    @pytest.mark.parametrize(
        "brk", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r"]
    )
    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (lambda text: parse_query_spec(text, (2, 2)),
             "marginals monotone d=1{}indicator S=1 values=0", "expected 'marginals "),
            (parse_distribution_spec, "product{}0.5,0.5", "unknown distribution kind"),
            (parse_distribution_spec, "explicit 2{}0;1", "arities must be comma-separated"),
        ],
        ids=["query", "product", "explicit"],
    )
    def test_only_lf_and_crlf_end_spec_lines(self, parse, text, message, brk):
        with pytest.raises(ValueError, match=f"^line 1: {message}"):
            parse(text.format(brk))
        assert parse(text.format("\r\n")) is not None

    def test_crlf_lines_parse_as_lf_lines(self):
        text = "marginals monotone d=1  # comment\n\nindicator S=1 values=0\n"
        crlf = text.replace("\n", "\r\n")
        assert len(parse_query_spec(crlf, (2, 2))) == len(parse_query_spec(text, (2, 2))) == 4
        with pytest.raises(ValueError, match="^line 3: unknown directive"):
            parse_query_spec(crlf.replace("indicator", "indicater"), (2, 2))
        dist = parse_distribution_spec("explicit 2\r\n0;0.25\r\n1;0.75\r\n")
        assert dist.weights.tolist() == [0.25, 0.75]

    def test_marginal_order_beyond_dimension(self):
        with pytest.raises(ValueError, match="line 1: .*0 <= d <= p"):
            parse_query_spec("marginals monotone d=3", (2, 2))
