"""Generators for stiff test systems, costs, and their exact ReLU networks.

Every recipe returns the analytic coefficients together with coefficient
networks that reproduce them exactly (defect gamma = 0), so synthesis tests
can separate calculus exactness from approximation error.  Approximate
coefficients are exercised separately through `perturb_coefficients`, which
adds a bounded synthetic defect of prescribed sup-norm size.

All recipes are validated against the monotonicity/regularity hypotheses at
construction time.
"""

from dataclasses import dataclass, field
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
    gamma: float
    params: dict = field(default_factory=dict)
    sigma0: Optional[np.ndarray] = None  # set when sigma is constant
    linear: bool = False  # mu == 0 and sigma constant => exact oracle
    control_dims: Optional[tuple] = None  # (m1, m2) for controlled recipes

    def exact_value(self, betaw, x0, horizon):
        """Closed-form value at a start point (d,) or a batch (P, d)."""
        if not self.linear:
            raise ValueError("closed-form value only available for linear recipes")
        return ou_exact_value(self.system.A, self.sigma0, betaw, x0, horizon)


def _constant_net(d, width, value=0.0, extra_in=0):
    # input (t, x[, u]); realizes the constant vector `value` (zero drift by default)
    n_in = d + 1 + extra_in
    return Network(
        [
            Layer(np.zeros((width, n_in)), np.zeros(width)),
            Layer(np.zeros((d, width)), np.broadcast_to(value, (d,))),
        ]
    )


def _relu_drift_net(d, scale):
    # input (t, x); hidden relu(x_i); output scale * relu(x)
    w1 = np.hstack([np.zeros((d, 1)), np.eye(d)])
    return Network([Layer(w1, np.zeros(d)), Layer(scale * np.eye(d), np.zeros(d))])


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


def _diag_sigma(scale, d):
    eye = np.eye(d)

    def sigma(t, x):
        x = np.asarray(x, dtype=np.float64)
        return (scale * x)[..., :, None] * eye

    return sigma


def _validated(recipe, trials=1000):
    report = validate_system(recipe.system, trials=trials)
    if not report.passed:
        raise ValueError(
            "recipe %r violates the standing hypotheses: %s"
            % (recipe.id, report.checks)
        )
    return recipe


def make_ou(d, decay=0.5, noise=0.1, eta=0.5, sigma_kind="const"):
    """Linear system: A = decay*I and zero drift.

    sigma_kind "const" gives additive noise (beta = 0 and the closed-form
    value oracle applies); "diag" gives the linear multiplicative noise
    noise * diag(x), which exhibits the h^(1/2) strong rate.
    """
    a = float(decay)
    s = float(noise)
    A = a * np.eye(d)

    def mu(t, x):
        return np.zeros_like(np.asarray(x, dtype=np.float64))

    if sigma_kind == "const":
        sigma0 = s * np.eye(d)
        sigma = lambda t, x: sigma0
        beta = 0.0
        sigma_l0 = s * np.sqrt(d)
        sigma_l1 = 0.0
        width = 1  # smallest architecture that holds the constant columns
        cols = [_constant_net(d, width, sigma0[:, i]) for i in range(d)]
        linear = True
    elif sigma_kind == "diag":
        sigma0 = None
        sigma = _diag_sigma(s, d)
        beta = 0.5 * (1.0 + eta) * s * s
        sigma_l0 = 0.0
        sigma_l1 = s
        cols = [_diag_column_net(d, i, s) for i in range(d)]
        linear = False
    else:
        raise ValueError("sigma_kind must be 'const' or 'diag'")

    sysm = StiffSystem(
        d=d,
        A=A,
        mu=mu,
        sigma=sigma,
        beta=beta,
        eta=eta,
        mu_l0=0.0,
        mu_l1=0.0,
        sigma_l0=sigma_l0,
        sigma_l1=sigma_l1,
        kappa0=max(1.0, a),
    )
    recipe = SystemRecipe(
        id="ou",
        d=d,
        system=sysm,
        mu_net=_constant_net(d, cols[0].dims[1]),
        sigma_col_nets=cols,
        gamma=0.0,
        params={"decay": a, "noise": s, "eta": eta, "sigma_kind": sigma_kind},
        sigma0=sigma0,
        linear=linear,
    )
    return _validated(recipe)


def make_galerkin_heat(
    d, diffusivity=1.0, drift_scale=0.0, noise_scale=0.1, eta=0.5, sigma_kind="const"
):
    """Spectral discretization of a stiff heat-type equation.

    A = diffusivity * pi^2 * diag(k^2), so the operator norm grows like
    d^2; the drift is the elementwise drift_scale * relu(x) (exactly a
    two-layer ReLU network).  sigma_kind "const" gives a constant diagonal
    noise matrix, "diag" the multiplicative noise_scale * diag(x).
    beta covers the drift's Lipschitz contribution (plus the noise's for
    the multiplicative kind).
    """
    a = float(diffusivity)
    c = float(drift_scale)
    s = float(noise_scale)
    if a < 0.0 or s < 0.0:
        raise ValueError("diffusivity and noise scale must be nonnegative")
    k = np.arange(1, d + 1, dtype=np.float64)
    A = np.diag(a * np.pi**2 * k**2)

    def mu(t, x):
        return c * np.maximum(np.asarray(x, dtype=np.float64), 0.0)

    beta = c + eta * c * c
    if sigma_kind == "const":
        sigma0 = s * np.eye(d)
        sigma = lambda t, x: sigma0
        sigma_l0 = s * np.sqrt(d)
        sigma_l1 = 0.0
        width = d if c != 0.0 else 1
        cols = [_constant_net(d, width, sigma0[:, i]) for i in range(d)]
        linear = c == 0.0
    elif sigma_kind == "diag":
        sigma0 = None
        sigma = _diag_sigma(s, d)
        beta += 0.5 * (1.0 + eta) * s * s
        sigma_l0 = 0.0
        sigma_l1 = s
        cols = [_diag_column_net(d, i, s) for i in range(d)]
        linear = False
    else:
        raise ValueError("sigma_kind must be 'const' or 'diag'")

    sysm = StiffSystem(
        d=d,
        A=A,
        mu=mu,
        sigma=sigma,
        beta=beta,
        eta=eta,
        mu_l0=0.0,
        mu_l1=c,
        sigma_l0=sigma_l0,
        sigma_l1=sigma_l1,
        kappa0=max(2.0, a * np.pi**2),
    )
    mu_net = _relu_drift_net(d, c) if c != 0.0 else _constant_net(d, cols[0].dims[1])
    recipe = SystemRecipe(
        id="galerkin_heat",
        d=d,
        system=sysm,
        mu_net=mu_net,
        sigma_col_nets=cols,
        gamma=0.0,
        params={
            "diffusivity": a,
            "drift_scale": c,
            "noise_scale": s,
            "eta": eta,
            "sigma_kind": sigma_kind,
        },
        sigma0=sigma0,
        linear=linear,
    )
    return _validated(recipe)


def make_relu_drift_system(d, l_mu=1.0, eta=0.5, noise_scale=0.0):
    """Nonstiff system with elementwise l_mu * relu(x) drift.

    The drift is l_mu-Lipschitz and monotone, so beta = l_mu + eta l_mu^2
    suffices; the drift network reproduces it exactly (gamma = 0).
    """
    l_mu = float(l_mu)
    s = float(noise_scale)
    A = np.zeros((d, d))
    sigma0 = s * np.eye(d)

    def mu(t, x):
        return l_mu * np.maximum(np.asarray(x, dtype=np.float64), 0.0)

    def sigma(t, x):
        return sigma0

    sysm = StiffSystem(
        d=d,
        A=A,
        mu=mu,
        sigma=sigma,
        beta=l_mu + eta * l_mu * l_mu,
        eta=eta,
        mu_l0=0.0,
        mu_l1=l_mu,
        sigma_l0=s * np.sqrt(d),
        sigma_l1=0.0,
        kappa0=1.0,
    )
    width = d if l_mu != 0.0 else 1
    mu_net = _relu_drift_net(d, l_mu) if l_mu != 0.0 else _constant_net(d, width)
    recipe = SystemRecipe(
        id="relu_drift",
        d=d,
        system=sysm,
        mu_net=mu_net,
        sigma_col_nets=[_constant_net(d, width, sigma0[:, i]) for i in range(d)],
        gamma=0.0,
        params={"l_mu": l_mu, "eta": eta, "noise_scale": s},
        sigma0=sigma0,
        linear=(l_mu == 0.0),
    )
    return _validated(recipe)


def make_controlled_relu_drift(
    d, l_mu=0.5, eta=0.5, noise_scale=0.05, b1=None, b2=None, m1=1, m2=1
):
    """Controlled drift l_mu * relu(x) + B1 u1 + B2 u2, constant noise.

    The action enters additively, so the x-Lipschitz structure (and the
    monotonicity constants) are uniform over the action sets.  Coefficient
    networks take (t, x, u1, u2) with the action carried through a
    (relu(u), relu(-u)) channel pair.
    """
    l_mu = float(l_mu)
    s = float(noise_scale)
    if b1 is None:
        b1 = np.ones((d, m1))
    if b2 is None:
        b2 = -np.ones((d, m2))
    b1 = np.asarray(b1, dtype=np.float64).reshape(d, -1)
    b2 = np.asarray(b2, dtype=np.float64).reshape(d, -1)
    m1, m2 = b1.shape[1], b2.shape[1]
    m_total = m1 + m2
    A = np.zeros((d, d))
    sigma0 = s * np.eye(d)
    b_all = np.hstack([b1, b2])

    def mu(t, x, u1, u2):
        x = np.asarray(x, dtype=np.float64)
        u = np.concatenate([np.atleast_1d(u1), np.atleast_1d(u2)])
        return l_mu * np.maximum(x, 0.0) + b_all @ u

    # uncontrolled envelope used only for hypothesis validation: the action
    # shift is common to both arguments of the monotonicity inequality
    def mu_frozen(t, x):
        return l_mu * np.maximum(np.asarray(x, dtype=np.float64), 0.0)

    sysm = StiffSystem(
        d=d,
        A=A,
        mu=mu_frozen,
        sigma=lambda t, x: sigma0,
        beta=l_mu + eta * l_mu * l_mu,
        eta=eta,
        mu_l0=0.0,
        mu_l1=l_mu,
        sigma_l0=s * np.sqrt(d),
        sigma_l1=0.0,
        kappa0=1.0,
    )

    width = d + 2 * m_total
    w1 = np.zeros((width, 1 + d + m_total))
    w1[:d, 1 : 1 + d] = np.eye(d)
    w1[d : d + m_total, 1 + d :] = np.eye(m_total)
    w1[d + m_total :, 1 + d :] = -np.eye(m_total)
    w2 = np.hstack([l_mu * np.eye(d), b_all, -b_all])
    mu_net = Network([Layer(w1, np.zeros(width)), Layer(w2, np.zeros(d))])
    col_nets = [_constant_net(d, width, sigma0[:, i], m_total) for i in range(d)]
    recipe = SystemRecipe(
        id="controlled_relu_drift",
        d=d,
        system=sysm,
        mu_net=mu_net,
        sigma_col_nets=col_nets,
        gamma=0.0,
        params={
            "l_mu": l_mu,
            "eta": eta,
            "noise_scale": s,
            "m1": m1,
            "m2": m2,
        },
        sigma0=sigma0,
        linear=False,
        control_dims=(m1, m2),
    )
    recipe.controlled_mu = mu
    return _validated(recipe)


@dataclass
class CostPack:
    """Quadratic terminal cost, its truncation, and its ReLU network."""

    f: Callable
    f_trunc: Callable
    net: Network
    theta: float
    beta_weights: np.ndarray
    radius: float
    eps_cost: float

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
        radius=float(radius),
        eps_cost=float(eps_cost),
    )


def perturb_coefficients(sys, gamma):
    """Coefficients at synthetic sup-distance <= gamma from the system's.

    The drift gains a bounded bump of norm <= gamma/2 and the diffusion a
    bounded diagonal of Frobenius norm <= gamma/2.
    """
    gamma = float(gamma)
    if gamma == 0.0:
        return PerturbedCoefficients(mu=sys.mu, sigma=sys.sigma, gamma=0.0)
    d = sys.d

    def mu(t, x):
        x = np.asarray(x, dtype=np.float64)
        w = np.tanh(x)
        norm = np.linalg.norm(w, axis=-1, keepdims=True)
        return sys.mu(t, x) + (0.5 * gamma) * w / np.maximum(1.0, norm)

    def sigma(t, x):
        x = np.asarray(x, dtype=np.float64)
        base = np.asarray(sys.sigma(t, x), dtype=np.float64)
        if base.ndim == 2:
            base = np.broadcast_to(base, x.shape[:-1] + base.shape)
        bump = (0.5 * gamma / np.sqrt(d)) * np.sin(x)
        return base + bump[..., :, None] * np.eye(d)

    return PerturbedCoefficients(mu=mu, sigma=sigma, gamma=gamma)


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
