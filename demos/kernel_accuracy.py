"""Accuracy sweep of the Jacobi elliptic kernel.

Checks the algebraic identities, the quarter-period structure and the
degenerations cn(., 0) = cos, cn(., 1) = sech across the modulus range,
and compares K(m) against brute-force quadrature of its defining
integral.
"""

import math

import numpy as np

from abcdwaves import complete_k, jacobi_eval


def quadrature_k(m, n=400_000):
    t = np.linspace(0.0, math.pi / 2, n + 1)
    f = 1.0 / np.sqrt(1.0 - (m * np.sin(t)) ** 2)
    h = t[1] - t[0]
    return h / 3 * (f[0] + f[-1] + 4 * f[1::2].sum() + 2 * f[2:-1:2].sum())


def main():
    print("K(m) vs composite-Simpson quadrature:")
    for m in (0.1, 0.5, 0.8, 0.95, 0.999):
        agm, quad = complete_k(m), quadrature_k(m)
        print(f"   m = {m:5.3f}: K = {agm:.15f}   |diff| = {abs(agm-quad):.1e}")

    vs = np.linspace(-10, 10, 401)
    print("\nworst-case identity defects over v in [-10, 10]:")
    for m in (0.0, 0.3, 0.7, 0.9, 0.99, 1.0):
        pt = jacobi_eval(vs, m)
        worst_pyth = np.max(np.abs(pt.sn ** 2 + pt.cn ** 2 - 1))
        worst_dn = np.max(np.abs(pt.dn ** 2 - (1 - m * m + (m * pt.cn) ** 2)))
        print(f"   m = {m:4.2f}: |sn^2+cn^2-1| <= {worst_pyth:.1e}, "
              f"dn identity <= {worst_dn:.1e}")

    print("\nperiodicity |cn(v + 4K) - cn(v)|:")
    for m in (0.3, 0.7, 0.99):
        period = 4 * complete_k(m)
        worst = np.max(np.abs(jacobi_eval(vs + period, m).cn - jacobi_eval(vs, m).cn))
        print(f"   m = {m:4.2f}: {worst:.1e}   (period {period:.6f})")

    print("\ndegenerations:")
    worst0 = np.max(np.abs(jacobi_eval(vs, 0.0).cn - np.cos(vs)))
    worst1 = np.max(np.abs(jacobi_eval(vs, 1.0).cn - 1 / np.cosh(vs)))
    print(f"   |cn(v,0) - cos v|  <= {worst0:.1e}")
    print(f"   |cn(v,1) - sech v| <= {worst1:.1e}")


if __name__ == "__main__":
    main()
