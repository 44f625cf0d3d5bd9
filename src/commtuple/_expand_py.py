"""Row-by-row oracle for the product-expansion recurrence."""

from __future__ import annotations


def expand_kernel(c: list, n_max: int) -> list:
    """p(0..n_max) with n p(n) = sum_{k=1}^{n} c(k) p(n-k).

    One multiply-add per term, in the order the recurrence is written;
    the production kernel `series._run_kernel` must agree with it.
    Every division must be exact; a nonzero remainder means the weight
    table does not come from an integral product and is reported.
    """
    p = [0] * (n_max + 1)
    p[0] = 1
    for n in range(1, n_max + 1):
        acc = 0
        for k in range(1, n + 1):
            acc += c[k] * p[n - k]
        q, r = divmod(acc, n)
        if r:
            raise ArithmeticError(f"inexact division at n={n}")
        p[n] = q
    return p
