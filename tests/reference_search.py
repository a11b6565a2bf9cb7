"""The binary threshold search that `exactnum.least_feasible` replaced with
a galloping search over certificates, kept as it was as an oracle: it takes
a bool predicate and probes the middle index (lo + hi) // 2 of the open
range, from the whole list down."""


def least_feasible(values, feasible):
    """The least entry of the sorted list `values` at which the monotone
    predicate `feasible` holds, or None if it holds at none.  Binary search:
    each probe is the middle index (lo + hi) // 2 of the open range."""
    lo, hi = 0, len(values) - 1
    best = None
    while lo <= hi:
        mid = (lo + hi) // 2
        if feasible(values[mid]):
            best = values[mid]
            hi = mid - 1
        else:
            lo = mid + 1
    return best
