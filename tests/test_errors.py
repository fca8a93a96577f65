import pytest

from traincost.errors import InputError, check_count, check_number, check_object


class TestCheckNumber:
    @pytest.mark.parametrize("value", [0, 3, 2.5, 1e308])
    def test_returns_a_float(self, value):
        result = check_number("x", value)
        assert type(result) is float and result == value

    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), -float("inf"), -1, -1e-300, True, False, "1",
        None, [], 10 ** 400])
    def test_rejects_non_finite_negative_and_non_numbers(self, value):
        with pytest.raises(InputError,
                           match=r"^x value .* is not a finite number >= 0$"):
            check_number("x", value)

    @pytest.mark.parametrize("kwargs,good,bad,domain", [
        ({"strict": True}, 1e-300, 0, "> 0"),
        ({"low": 1.0}, 1, 0.999, ">= 1"),
        ({"strict": True, "high": 1.0}, 1, 1.0001, r"in \(0, 1\]"),
        ({"strict": True, "high": 1.0}, 0.5, 0.0, r"in \(0, 1\]"),
    ])
    def test_bounds(self, kwargs, good, bad, domain):
        assert check_number("x", good, **kwargs) == good
        with pytest.raises(InputError, match=f"is not a finite number {domain}$"):
            check_number("x", bad, **kwargs)


class TestCheckObject:
    def test_returns_the_dict(self):
        data = {"qkv": 2}
        assert check_object(data, "x") is data

    @pytest.mark.parametrize("value,kind", [([], "list"), ([["qkv", 2]], "list"),
                                            (None, "NoneType"), ("{}", "str")])
    def test_rejects_non_objects(self, value, kind):
        with pytest.raises(InputError, match=f"^x must be a JSON object, got {kind}$"):
            check_object(value, "x")


class TestCheckCount:
    def test_returns_the_int(self):
        assert check_count("n", 8) == 8

    @pytest.mark.parametrize("value", [0, -8, 8.0, 8.5, True, "8", None])
    def test_rejects_non_counts(self, value):
        with pytest.raises(InputError, match=r"^n value .* is not an integer >= 1$"):
            check_count("n", value)
