"""Mixed-radix digits: the decoding every enumeration index goes through."""


def digits(idx, radix, count):
    """The count base-radix digits of idx, most significant first."""
    out = [0] * count
    for i in range(count - 1, -1, -1):
        idx, out[i] = divmod(idx, radix)
    return out
