"""The literal reader: numbers and intervals written as text.

Only `eval`'s interval arguments and `theorem1`'s `--a` are literals, so
only those commands load this module: `interval.parse_interval` imports it
on its first call. A number is read with `str` methods, so this module
imports no `re`, and a float-mode literal is read without `fractions`.
"""

from __future__ import annotations

from .interval import EXACT, MAX_DIGITS, TYPE_CHECKING, IntervalError, fraction

if TYPE_CHECKING:
    from .interval import Number, NumericMode


def _split_exponent(text: str) -> tuple[str, str | None]:
    """`text` as its mantissa and the digits of its exponent: the text
    before its last "e" or "E", and what follows that after one optional
    sign, if that is one or more decimal digits and "_"s. Else `text` and
    None: no other "e" can start an exponent, since the last one is not a
    digit."""
    at = max(text.rfind("e"), text.rfind("E"))
    digits = text[at + 1:]
    digits = digits[1:] if digits[:1] in ("+", "-") else digits
    if at < 0 or not digits.replace("_", "0").isdecimal():
        return text, None
    return text[:at], digits


def _split_interval(text: str) -> list[str] | None:
    """The endpoint texts of the interval literal `text`: "[", two texts
    separated by ",", and "]", with whitespace around each of them. An
    endpoint text is not empty and holds no whitespace, ",", "[" or "]".
    None if `text` is not such a literal."""
    inner = text.strip()
    if inner[:1] != "[" or inner[-1:] != "]":
        return None
    ends = [end.strip() for end in inner[1:-1].split(",")]
    if len(ends) != 2 or any(end.split() != [end] or "[" in end or "]" in end
                             for end in ends):
        return None
    return ends


def parse_number(text: str, mode: NumericMode = EXACT) -> Number:
    """Parse a decimal ("0.25") or rational ("1/3") endpoint: an optional
    sign, then digits, with no "_" and no space inside.

    `Fraction` multiplies out 10 to the power of the exponent, so
    `1e999999999` would run for minutes. A literal whose digits and
    exponent together pass `MAX_DIGITS` is refused before it is built. In
    float mode no `Fraction` is built: `float()` reads a decimal and
    `int(p) / int(q)` a ratio, each correctly rounded, so the double is
    bit for bit `float(Fraction(text))`, and each refuses what `Fraction`
    refuses ("nan" and "inf" are not numbers here)."""
    text = text.strip()
    mantissa, digits = _split_exponent(text)
    exponent = digits.replace("_", "").lstrip("0") if digits else ""
    if (len(exponent) > len(str(MAX_DIGITS)) or sum(
            c.isdigit() for c in mantissa) + int(exponent or 0) > MAX_DIGITS):
        shown = text if len(text) <= 40 else text[:37] + "..."
        raise IntervalError(f"cannot parse number {shown!r}: its digits and "
                            f"exponent exceed the limit of {MAX_DIGITS}")
    num, slash, den = text.partition("/")
    try:
        # Python versions differ on whether Fraction reads "_" and spaces
        # around "/": a literal may have neither, so it means the same on all
        if "_" in text or text.split() != [text] or not mode.is_exact and (
                "n" in text.lower() or slash and not den[:1].isdecimal()):
            raise ValueError("expected a decimal or a ratio p/q")
        if mode.is_exact:
            return fraction(text)
        value = int(num) / int(den) if slash else float(text)
    except OverflowError:  # past the largest double, as float("1e400") is
        value = float("-inf" if num[:1] == "-" else "inf")
    except (ValueError, ZeroDivisionError) as exc:
        raise IntervalError(f"cannot parse number {text!r}: {exc}") from exc
    # Fraction has no -0, so -0 reads 0.0; a negative number that rounds to
    # 0 reads -0.0, as float(Fraction(text)) gives
    return value if value or any(c.isdigit() and int(c) for c in mantissa) else 0.0
