"""Check the closed-form update direction against the integrated geodesic flow.

T = J + kappa * G^-1 grad(J^T G J) with kappa = dt/2 should track one
RK2 step of the geodesic equation: the angle between the two directions
shrinks in proportion to dt, a tenth per tenfold smaller step.  T takes
grad(J^T G J) from the field's vector-Jacobian product; the geodesic
equation takes its Christoffel symbols from finite differences of the
field itself.
"""

import numpy as np

from rpg.geodesic import geodesic_gradient, geodesic_ode_direction
from rpg.metric import MetricPoint, inverse_apply
from rpg.rng import RngStream


def u_field(pts):
    pts = np.atleast_2d(pts)
    idx = np.arange(pts.shape[1])
    return 0.6 * np.sin(pts + 0.7 * idx)


def u_vjp(theta, cot):
    """(u(theta), (du/dtheta)^T cot): the Jacobian of u_field is diagonal."""
    phase = theta + 0.7 * np.arange(theta.size)
    return 0.6 * np.sin(phase), 0.6 * np.cos(phase) * cot


def angle(a, b):
    c = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def main():
    rng = RngStream(11)
    n = 5
    theta = rng.normal(size=n)
    grad = rng.normal(size=n)
    # the flow transports the *regularized* gradient, so seed the ODE with it
    j0 = inverse_apply(MetricPoint(u_field(theta[None])[0]), grad)

    print(f"{'dt':>10} {'angle(T, ode)':>14} {'rel norm gap':>13}")
    for dt in (1e-1, 1e-2, 1e-3, 1e-4):
        t_dir = geodesic_gradient(u_vjp, theta, j0, dt / 2.0)
        ode = geodesic_ode_direction(u_field, theta, j0, dt)
        gap = abs(np.linalg.norm(t_dir) - np.linalg.norm(ode))
        gap /= np.linalg.norm(ode)
        print(f"{dt:>10.0e} {angle(t_dir, ode):>14.3e} {gap:>13.3e}")

    flat = geodesic_gradient(
        lambda p, c: (np.zeros_like(p), np.zeros_like(p)), theta, grad, 0.05)
    print("\nflat metric leaves the direction untouched:",
          np.array_equal(flat, grad))


if __name__ == "__main__":
    main()
