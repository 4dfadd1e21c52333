"""Mixed-radix digits: the decoding every enumeration index goes through."""


def digits(idx, radix, count):
    """The count base-radix digits of idx, most significant first; idx must
    lie in [0, radix^count)."""
    out = [0] * count
    rest = idx
    for i in range(count - 1, -1, -1):
        rest, out[i] = divmod(rest, radix)
    if rest:
        raise ValueError(f"index {idx} outside [0, {radix}^{count})")
    return out
