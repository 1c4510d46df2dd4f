"""Generators for stiff test systems, costs, and their exact ReLU networks.

Every recipe returns the analytic coefficients together with coefficient
networks that reproduce them exactly (defect gamma = 0), so synthesis tests
can separate calculus exactness from approximation error.  Approximate
coefficients are exercised separately through `perturb_coefficients`, which
adds a bounded synthetic defect of prescribed sup-norm size.

All recipes are validated against the monotonicity/regularity hypotheses at
construction time.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .calculus import weighted_square_net
from .network import Layer, Network, realize
from .sde import PerturbedCoefficients, StiffSystem, ou_exact_value, validate_system

__all__ = [
    "SystemRecipe",
    "CostPack",
    "make_ou",
    "make_galerkin_heat",
    "make_relu_drift_system",
    "make_controlled_relu_drift",
    "make_quadratic_cost",
    "perturb_coefficients",
    "RECIPES",
    "make_system",
]


@dataclass
class SystemRecipe:
    id: str
    d: int
    system: StiffSystem
    mu_net: Network
    sigma_col_nets: list
    sigma0: Optional[np.ndarray] = None  # set when sigma is constant
    linear: bool = False  # mu == 0 and sigma constant => exact oracle
    control_dims: Optional[tuple] = None  # (m1, m2) for controlled recipes

    def exact_value(self, betaw, x0, horizon):
        """Closed-form value at a start point (d,) or a batch (P, d)."""
        if not self.linear:
            raise ValueError("closed-form value only available for linear recipes")
        return ou_exact_value(self.system.A, self.sigma0, betaw, x0, horizon)


def _constant_net(d, value=0.0, extra_in=0):
    # input (t, x[, u]); one hidden unit realizes the constant `value` (zero drift by default)
    n_in = d + 1 + extra_in
    return Network(
        [
            Layer(np.zeros((1, n_in)), np.zeros(1)),
            Layer(np.zeros((d, 1)), np.broadcast_to(value, (d,))),
        ]
    )


def _relu_drift_net(d, scale, actions):
    # input (t, x, u); hidden relu(x), relu(u), relu(-u); output
    # scale * relu(x) + actions @ u, the action carried as relu(u) - relu(-u)
    m = actions.shape[1]
    w1 = np.zeros((d + 2 * m, 1 + d + m))
    w1[:d, 1 : 1 + d] = np.eye(d)
    w1[d:, 1 + d :] = np.vstack([np.eye(m), -np.eye(m)])
    w2 = np.hstack([scale * np.eye(d), actions, -actions])
    return Network([Layer(w1, np.zeros(d + 2 * m)), Layer(w2, np.zeros(d))])


def _diag_column_net(d, i, scale):
    # input (t, x); realizes scale * x_i * e_i via the (relu, relu-of-minus)
    # carrier of the single coordinate
    w1 = np.zeros((2, d + 1))
    w1[0, 1 + i] = 1.0
    w1[1, 1 + i] = -1.0
    w2 = np.zeros((d, 2))
    w2[i, 0] = scale
    w2[i, 1] = -scale
    return Network([Layer(w1, np.zeros(2)), Layer(w2, np.zeros(d))])


def _refuse_non_numbers(**params):
    """ValueError for a bool or a non-finite number among numeric parameters.

    JSON true is not 1.0, and Python's json reads NaN and Infinity.
    """
    for name, value in params.items():
        for v in np.asarray(value, dtype=object).flat:
            if isinstance(v, (bool, np.bool_)):
                raise ValueError("%s must be a number, got %r" % (name, value))
            if isinstance(v, (float, np.floating)) and not math.isfinite(v):
                raise ValueError("%s must be finite, got %r" % (name, value))


def _zero_drift(t, x):
    # a read-only view: the scheme only reads the drift
    return np.broadcast_to(0.0, np.shape(x))


def _diagonal_recipe(
    id, d, a_diag, drift, noise, eta, sigma_kind, kappa0, actions=None
):
    """Validated recipe for A = diag(a_diag), mu = drift * relu(x).

    sigma_kind "const" gives the additive noise noise * I, "diag" the
    multiplicative noise noise * diag(x).  beta = drift + eta drift^2
    covers the drift's monotone Lipschitz part, plus (1+eta)/2 noise^2 for
    the multiplicative kind.  With constant noise, a (d, m) action matrix
    B adds B u to the drift net; every coefficient net then takes
    (t, x, u), and the validated system is the action-free envelope.  The
    recipe is linear (exact value oracle) when the drift is zero, the
    noise constant and there are no actions.
    """
    c = float(drift)
    s = float(noise)
    actions = np.zeros((d, 0)) if actions is None else actions
    m = actions.shape[1]
    beta = c + eta * c * c
    if sigma_kind == "const":
        sigma0 = s * np.eye(d)
        noise = lambda t, x, db: s * db
        sigma_l0, sigma_l1 = s * np.sqrt(d), 0.0
        cols = [_constant_net(d, sigma0[:, i], m) for i in range(d)]
    elif sigma_kind == "diag":
        sigma0 = None
        noise = lambda t, x, db: (s * np.asarray(x, dtype=np.float64)) * db
        beta += 0.5 * (1.0 + eta) * s * s
        sigma_l0, sigma_l1 = 0.0, s
        cols = [_diag_column_net(d, i, s) for i in range(d)]
    else:
        raise ValueError("sigma_kind must be 'const' or 'diag'")
    mu = _zero_drift if c == 0.0 else (lambda t, x: c * np.maximum(x, 0.0))
    mu_net = _relu_drift_net(d, c, actions) if c != 0.0 or m > 0 else _constant_net(d)

    sysm = StiffSystem(
        d=d,
        A=np.diag(a_diag),
        mu=mu,
        noise=noise,
        beta=beta,
        eta=eta,
        mu_l0=0.0,
        mu_l1=c,
        sigma_l0=sigma_l0,
        sigma_l1=sigma_l1,
        kappa0=kappa0,
    )
    report = validate_system(sysm)
    if not report.passed:
        raise ValueError(
            "recipe %r violates the standing hypotheses: %s" % (id, report.checks)
        )
    return SystemRecipe(
        id=id,
        d=d,
        system=sysm,
        mu_net=mu_net,
        sigma_col_nets=cols,
        sigma0=sigma0,
        linear=sigma_kind == "const" and c == 0.0 and m == 0,
    )


def make_ou(d, decay=0.5, noise=0.1, eta=0.5, sigma_kind="const"):
    """Linear system: A = decay*I and zero drift.

    sigma_kind "const" gives additive noise (beta = 0 and the closed-form
    value oracle applies); "diag" gives the linear multiplicative noise
    noise * diag(x), which exhibits the h^(1/2) strong rate.
    """
    _refuse_non_numbers(decay=decay, noise=noise, eta=eta)
    a = float(decay)
    s = float(noise)
    return _diagonal_recipe(
        "ou", d, np.full(d, a), 0.0, s, eta, sigma_kind, max(1.0, a)
    )


def make_galerkin_heat(
    d, diffusivity=1.0, drift_scale=0.0, noise_scale=0.1, eta=0.5, sigma_kind="const"
):
    """Spectral discretization of a stiff heat-type equation.

    A = diffusivity * pi^2 * diag(k^2), so the operator norm grows like
    d^2; the drift is the elementwise drift_scale * relu(x) (exactly a
    two-layer ReLU network).  sigma_kind "const" gives a constant diagonal
    noise matrix, "diag" the multiplicative noise_scale * diag(x).
    """
    _refuse_non_numbers(
        diffusivity=diffusivity, drift_scale=drift_scale, noise_scale=noise_scale, eta=eta
    )
    a = float(diffusivity)
    c = float(drift_scale)
    s = float(noise_scale)
    if a < 0.0 or s < 0.0:
        raise ValueError("diffusivity and noise scale must be nonnegative")
    k = np.arange(1, d + 1, dtype=np.float64)
    return _diagonal_recipe(
        "galerkin_heat",
        d,
        a * np.pi**2 * k**2,
        c,
        s,
        eta,
        sigma_kind,
        max(2.0, a * np.pi**2),
    )


def make_relu_drift_system(d, l_mu=1.0, eta=0.5, noise_scale=0.0):
    """Nonstiff system (A = 0) with elementwise l_mu * relu(x) drift.

    The drift is l_mu-Lipschitz and monotone, so beta = l_mu + eta l_mu^2
    suffices; the drift network reproduces it exactly (gamma = 0).
    """
    _refuse_non_numbers(l_mu=l_mu, eta=eta, noise_scale=noise_scale)
    l_mu = float(l_mu)
    s = float(noise_scale)
    return _diagonal_recipe("relu_drift", d, np.zeros(d), l_mu, s, eta, "const", 1.0)


def make_controlled_relu_drift(
    d, l_mu=0.5, eta=0.5, noise_scale=0.05, b1=None, b2=None, m1=1, m2=1
):
    """Controlled drift l_mu * relu(x) + B1 u1 + B2 u2, constant noise.

    The action enters additively, so the x-Lipschitz structure (and the
    monotonicity constants) are uniform over the action sets: the recipe's
    system is the uncontrolled ReLU-drift envelope, which is what gets
    validated.  Coefficient networks take (t, x, u1, u2) with the action
    carried through a (relu(u), relu(-u)) channel pair.
    """
    _refuse_non_numbers(l_mu=l_mu, eta=eta, noise_scale=noise_scale, b1=b1, b2=b2, m1=m1, m2=m2)
    l_mu = float(l_mu)
    s = float(noise_scale)
    if b1 is None:
        b1 = np.ones((d, m1))
    if b2 is None:
        b2 = -np.ones((d, m2))
    b1 = np.asarray(b1, dtype=np.float64).reshape(d, -1)
    b2 = np.asarray(b2, dtype=np.float64).reshape(d, -1)
    b_all = np.hstack([b1, b2])
    recipe = _diagonal_recipe(
        "controlled_relu_drift", d, np.zeros(d), l_mu, s, eta, "const", 1.0, b_all
    )
    recipe.control_dims = (b1.shape[1], b2.shape[1])
    return recipe


@dataclass
class CostPack:
    """Quadratic terminal cost, its truncation, and its ReLU network."""

    f: Callable
    f_trunc: Callable
    net: Network
    theta: float
    beta_weights: np.ndarray

    def f_tilde(self, x):
        return realize(self.net, np.asarray(x, dtype=np.float64))[..., 0]


def make_quadratic_cost(beta_weights, radius, eps_cost):
    """f(x) = sum beta_m x_m^2, truncated to linear growth outside the box.

    theta = max|beta| * d * radius^2 * eps_cost bounds the sup gap between
    the truncation and its network.
    """
    beta_weights = np.asarray(beta_weights, dtype=np.float64).reshape(-1)
    d = beta_weights.shape[0]
    target, net = weighted_square_net(beta_weights, radius, eps_cost)

    def f(x):
        x = np.asarray(x, dtype=np.float64)
        return (x * x) @ beta_weights

    theta = float(np.max(np.abs(beta_weights)) * d * radius**2 * eps_cost)
    return CostPack(
        f=f,
        f_trunc=target,
        net=net,
        theta=theta,
        beta_weights=beta_weights,
    )


def perturb_coefficients(sys, gamma):
    """Coefficients at synthetic sup-distance <= gamma from the system's.

    The drift gains a bounded bump of norm <= gamma/2 and the diffusion a
    bounded diagonal of Frobenius norm <= gamma/2.
    """
    gamma = float(gamma)
    if gamma == 0.0:
        return PerturbedCoefficients(mu=sys.mu, noise=sys.noise, gamma=0.0)
    d = sys.d

    def mu(t, x):
        x = np.asarray(x, dtype=np.float64)
        w = np.tanh(x)
        norm = np.linalg.norm(w, axis=-1, keepdims=True)
        return sys.mu(t, x) + (0.5 * gamma) * w / np.maximum(1.0, norm)

    def noise(t, x, db):
        x = np.asarray(x, dtype=np.float64)
        bump = (0.5 * gamma / np.sqrt(d)) * np.sin(x)
        return sys.noise(t, x, db) + bump * db

    return PerturbedCoefficients(mu=mu, noise=noise, gamma=gamma)


RECIPES = {
    "ou": make_ou,
    "galerkin_heat": make_galerkin_heat,
    "relu_drift": make_relu_drift_system,
    "controlled_relu_drift": make_controlled_relu_drift,
}


def make_system(recipe_id, d, **params):
    """Build a recipe from the registry by string id."""
    try:
        factory = RECIPES[recipe_id]
    except KeyError:
        raise KeyError(
            "unknown system recipe %r (known: %s)"
            % (recipe_id, ", ".join(sorted(RECIPES)))
        ) from None
    return factory(d, **params)
