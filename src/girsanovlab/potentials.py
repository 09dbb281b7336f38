"""Target potentials V with vectorized value/gradient/Hessian evaluation.

All potentials are β-smooth and α-strongly convex with known constants, which
the step-size preconditions of the weighted schemes consume.  Evaluation is
vectorized over arbitrary leading batch axes: ``x`` has shape (..., d), values
have shape (...), gradients (..., d), and Hessians (..., d, d) dense, or, as
``hessian(x, factor=True)``, in the potential's declared form.

A separable potential declares ``diagonal_hessian`` and implements only the
diagonal of ∇²V: its factor is that diagonal, (..., d), and the base class
fills the dense batch from it, in one place.  Every other potential's factor
is its dense Hessian.  The generic weight route multiplies by ∇²V through
the factor, so a diagonal Hessian costs O(d) per product there, not O(d²).

Potentials with a constant Hessian advertise it through ``constant_hessian``,
and the base class broadcasts it over the batch axes of ``hessian``; the Monte
Carlo engine uses it to hoist all Malliavin-derivative work out of the
per-path loop, and :func:`stationary_moments` reads the target's Gaussian
law, the default start law of every quadratic run, off it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "diagonal_matrices",
    "stationary_moments",
    "Potential",
    "IsotropicQuadratic",
    "AnisotropicQuadratic",
    "PerturbedQuadratic",
    "LogCoshProduct",
]


def diagonal_matrices(diag: np.ndarray) -> np.ndarray:
    """(…, d) diagonals → (…, d, d) matrices with exact zeros off the diagonal."""
    d = diag.shape[-1]
    out = np.zeros(diag.shape + (d,))
    out.reshape(*diag.shape[:-1], d * d)[..., :: d + 1] = diag
    return out


def _check_points(x: np.ndarray, d: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (d,):
        raise ValueError(f"expected trailing dimension {d}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite evaluation point")
    return x


class Potential:
    """Base class: a smooth, strongly convex target V on R^d.

    Subclasses set ``d``, ``beta`` (a global upper bound on ‖∇²V‖_op),
    ``alpha`` (a lower bound on the Hessian spectrum) and implement the
    ``_value/_gradient`` hooks on pre-validated points, with either
    ``_hessian`` (dense) or, for a separable V, ``_hessian_diagonal``; a
    quadratic V sets ``constant_hessian`` and needs neither.
    """

    d: int
    beta: float
    alpha: float
    #: (d, d) array when ∇²V is constant, else None.
    constant_hessian: np.ndarray | None = None
    #: True when ∇²V is diagonal everywhere: the factor form is its diagonal.
    diagonal_hessian: bool = False

    @property
    def is_quadratic(self) -> bool:
        return self.constant_hessian is not None

    def value(self, x: np.ndarray) -> np.ndarray:
        return self._value(_check_points(x, self.d))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self._gradient(_check_points(x, self.d))

    def hessian(self, x: np.ndarray, factor: bool = False) -> np.ndarray:
        """∇²V, dense (..., d, d); with ``factor``, in the declared form.

        The factor form is the diagonal (..., d) when ``diagonal_hessian``
        is set, else the dense batch.
        """
        x = _check_points(x, self.d)
        if factor and self.diagonal_hessian:
            return self._hessian_diagonal(x)
        return self._hessian(x)

    def _value(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _gradient(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _hessian(self, x: np.ndarray) -> np.ndarray:
        """The dense batch: a read-only broadcast of ``constant_hessian`` when
        there is one, else the diagonal of ``_hessian_diagonal`` with exact
        zeros off it."""
        if self.constant_hessian is not None:
            return np.broadcast_to(self.constant_hessian, x.shape[:-1] + (self.d, self.d))
        return diagonal_matrices(self._hessian_diagonal(x))

    def _hessian_diagonal(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class IsotropicQuadratic(Potential):
    """V(x) = (scale/2)·‖x‖²; the Gaussian target N(0, I/scale).

    scale = 0 is the free potential (zero drift), useful as a degenerate
    fixture; it has no normalizable target.
    """

    def __init__(self, d: int, scale: float = 1.0):
        if d < 1:
            raise ValueError(f"dimension must be >= 1, got {d}")
        if not (np.isfinite(scale) and scale >= 0):
            raise ValueError(f"scale must be nonnegative, got {scale}")
        self.d = int(d)
        self.scale = float(scale)
        self.beta = self.scale
        self.alpha = self.scale
        self.constant_hessian = self.scale * np.eye(self.d)

    def _value(self, x):
        return 0.5 * self.scale * np.sum(x**2, axis=-1)

    def _gradient(self, x):
        return self.scale * x


class AnisotropicQuadratic(Potential):
    """V(x) = ½ xᵀ diag(spectrum) x with an arbitrary positive spectrum."""

    def __init__(self, spectrum):
        spectrum = np.asarray(spectrum, dtype=float)
        if spectrum.ndim != 1 or spectrum.size < 1:
            raise ValueError("spectrum must be a 1-D array of eigenvalues")
        if not np.all(np.isfinite(spectrum)) or np.any(spectrum <= 0):
            raise ValueError("spectrum must be finite and strictly positive")
        self.spectrum = spectrum
        self.d = spectrum.size
        self.beta = float(spectrum.max())
        self.alpha = float(spectrum.min())
        self.constant_hessian = np.diag(spectrum)

    def _value(self, x):
        return 0.5 * np.sum(self.spectrum * x**2, axis=-1)

    def _gradient(self, x):
        return self.spectrum * x


class PerturbedQuadratic(Potential):
    """V(x) = ½ xᵀ diag(spectrum) x + a·Σᵢ cos(ω xᵢ).

    A strongly convex target with genuinely position-dependent Hessian
    (∇²V = diag(spectrum) − aω²·diag(cos(ωx))), used to exercise the
    path-dependent parts of the Malliavin machinery.  Requires
    a·ω² < min(spectrum) so convexity survives the perturbation.
    """

    diagonal_hessian = True

    def __init__(self, spectrum, amplitude: float = 0.1, frequency: float = 1.0):
        spectrum = np.asarray(spectrum, dtype=float)
        if spectrum.ndim != 1 or spectrum.size < 1:
            raise ValueError("spectrum must be a 1-D array of eigenvalues")
        if not np.all(np.isfinite(spectrum)) or np.any(spectrum <= 0):
            raise ValueError("spectrum must be finite and strictly positive")
        if not (np.isfinite(amplitude) and amplitude >= 0):
            raise ValueError(f"amplitude must be >= 0, got {amplitude}")
        if not (np.isfinite(frequency) and frequency > 0):
            raise ValueError(f"frequency must be positive, got {frequency}")
        wobble = amplitude * frequency**2
        if wobble >= spectrum.min():
            raise ValueError(
                "perturbation destroys convexity: need amplitude*frequency^2 "
                f"< min spectrum ({wobble} >= {spectrum.min()})"
            )
        self.spectrum = spectrum
        self.amplitude = float(amplitude)
        self.frequency = float(frequency)
        self.d = spectrum.size
        self.beta = float(spectrum.max()) + wobble
        self.alpha = float(spectrum.min()) - wobble

    def _value(self, x):
        quad = 0.5 * np.sum(self.spectrum * x**2, axis=-1)
        return quad + self.amplitude * np.sum(np.cos(self.frequency * x), axis=-1)

    def _gradient(self, x):
        aw = self.amplitude * self.frequency
        return self.spectrum * x - aw * np.sin(self.frequency * x)

    def _hessian_diagonal(self, x):
        aw2 = self.amplitude * self.frequency**2
        return self.spectrum - aw2 * np.cos(self.frequency * x)


class LogCoshProduct(Potential):
    """V(x) = Σᵢ [½ xᵢ² + c·log cosh xᵢ]: a product of non-Gaussian marginals.

    Each marginal Hessian is 1 + c·sech²(xᵢ) ∈ [1, 1+c], so α = 1, β = 1+c.
    """

    diagonal_hessian = True

    def __init__(self, d: int, c: float = 1.0):
        if d < 1:
            raise ValueError(f"dimension must be >= 1, got {d}")
        if not (np.isfinite(c) and c >= 0):
            raise ValueError(f"c must be >= 0, got {c}")
        self.d = int(d)
        self.c = float(c)
        self.beta = 1.0 + self.c
        self.alpha = 1.0

    def _value(self, x):
        # log cosh with overflow-safe tail: log cosh t = |t| + log1p(e^{−2|t|}) − log 2
        t = np.abs(x)
        logcosh = t + np.log1p(np.exp(-2 * t)) - np.log(2.0)
        return np.sum(0.5 * x**2 + self.c * logcosh, axis=-1)

    def _gradient(self, x):
        return x + self.c * np.tanh(x)

    def _hessian_diagonal(self, x):
        return 1.0 + self.c * (1.0 - np.tanh(x) ** 2)


def stationary_moments(
    potential: Potential, kinetic: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Moments of the target: N(0, H⁻¹), or N(0, diag(H⁻¹, I)) in phase space.

    H is the potential's ``constant_hessian``; a potential without one is a
    ValueError, as is an H that is not positive definite.
    """
    if not potential.is_quadratic:
        raise ValueError("Gaussian reference moments require a quadratic potential")
    w, Q = np.linalg.eigh(potential.constant_hessian)
    if np.any(w <= 0):
        raise ValueError("stationary law needs a strictly convex quadratic")
    cov_x = (Q / w) @ Q.T
    d = potential.d
    if not kinetic:
        return np.zeros(d), cov_x
    cov = np.zeros((2 * d, 2 * d))
    cov[:d, :d] = cov_x
    cov[d:, d:] = np.eye(d)
    return np.zeros(2 * d), cov
