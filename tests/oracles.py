"""Closed-form reference solutions the tests and the convergence script
compare discrete solutions against."""

import numpy as np

from pmclab.errors import InvalidParameterError


class RadialSolution:
    """Closed-form radial solution on a disk or ball of radius R.

    For the homotopy operator with parameter t the radial profile solving
    the interior equation in dimension n is

        v'(r) = (H r / n) / sqrt(1 - (t H r / n)^2),
        v(r)  = v0 + (n / (t^2 H)) (1 - sqrt(1 - t^2 H^2 r^2 / n^2)),

    degenerating to the paraboloid v0 + H r^2 / (2n) at t = 0.  Robin data
    fixes v0 through v(R) = -v'(R)/alpha; Neumann profiles are returned with
    v0 = 0 and must be compared after mean normalization.  Neumann data is
    matched by this profile exactly when H = n c / (R sqrt(1 + t^2 c^2)).
    """

    def __init__(self, spec, R=1.0, n=None):
        self.spec = spec
        self.R = float(R)
        self.n = int(n if n is not None else spec.n_dim)
        q = spec.t * spec.H * self.R / self.n
        if q >= 1.0:
            raise InvalidParameterError(
                f"no radial graph solution: t*H*R/n = {q} >= 1")
        if spec.bc == "robin":
            self.v0 = -self.slope(self.R) / spec.alpha - self._bump(self.R)
        else:
            self.v0 = 0.0

    def _bump(self, r):
        H, t, n = self.spec.H, self.spec.t, self.n
        r = np.asarray(r, dtype=float)
        if t < 1e-14:
            return H * r ** 2 / (2.0 * n)
        return (n / (t * t * H)) * (1.0 - np.sqrt(1.0 - (t * H * r / n) ** 2))

    def slope(self, r):
        H, t, n = self.spec.H, self.spec.t, self.n
        r = np.asarray(r, dtype=float)
        return (H * r / n) / np.sqrt(1.0 - (t * H * r / n) ** 2)

    def __call__(self, r):
        return self.v0 + self._bump(r)

    def at_points(self, pts):
        pts = np.asarray(pts, dtype=float)
        return self(np.linalg.norm(pts, axis=-1))


def radial_disk_oracle(spec, R=1.0):
    """Radial reference solution on the disk of radius R (planar case)."""
    return RadialSolution(spec, R=R, n=2)


def radial_ball_oracle(spec, R=1.0, n=None):
    """Closed-form radial solution on the ball of radius R in dimension n."""
    return RadialSolution(spec, R=R, n=n if n is not None else spec.n_dim)
